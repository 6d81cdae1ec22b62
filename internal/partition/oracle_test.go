package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/trace"
)

// refOptimal is the original unpruned O(n²·K) dynamic program, kept as
// the oracle for Optimal: every (k, j) cell scans every split point i
// with two uint64-to-float conversions per candidate.
func refOptimal(spec *Spec, maxBanks int, m energy.MemoryModel) (*Partition, energy.PJ, error) {
	if maxBanks < 1 {
		return nil, 0, fmt.Errorf("partition: maxBanks must be >= 1, got %d", maxBanks)
	}
	if err := m.Validate(); err != nil {
		return nil, 0, fmt.Errorf("partition: %w", err)
	}
	n := len(spec.Blocks)
	if n == 0 {
		return &Partition{}, 0, nil
	}
	// Optimal is called in a loop by tradeoff.Curve, so its setup
	// allocations are per-iteration from the caller's view. Each O(n)
	// slice below is amortised over the O(n²·K) DP that follows, and the
	// logically-2D tables share single flat backings.
	//
	// Prefix sums for O(1) range statistics: pre[0..n] reads, pre[n+1..]
	// writes.
	pre := make([]uint64, 2*(n+1))
	preR, preW := pre[:n+1], pre[n+1:]
	for i, b := range spec.Blocks {
		preR[i+1] = preR[i] + b.Reads
		preW[i+1] = preW[i] + b.Writes
	}
	// Per-length model memos: the energy of one bank holding l blocks
	// depends only on l — and each model term hides a math.Pow — so the
	// O(n²·K) cost evaluations of the DP need just n model evaluations.
	memo := make([]energy.PJ, 3*(n+1))
	readE, writeE, leakE := memo[:n+1], memo[n+1:2*(n+1)], memo[2*(n+1):]
	for l := 1; l <= n; l++ {
		size := pow2Ceil(uint32(l) * spec.BlockSize)
		readE[l] = m.ReadEnergy(size)
		writeE[l] = m.WriteEnergy(size)
		leakE[l] = m.Leakage(size, spec.Cycles)
	}

	const inf = energy.PJ(1e30)
	// dp[k][j]: min energy of splitting blocks [0,j) into exactly k
	// banks; cut[k][j] the matching last boundary. Flat row-major tables.
	stride := n + 1
	dp := make([]energy.PJ, (maxBanks+1)*stride)
	cut := make([]int, (maxBanks+1)*stride)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for k := 1; k <= maxBanks; k++ {
		prev, row := dp[(k-1)*stride:k*stride], dp[k*stride:(k+1)*stride]
		cutRow := cut[k*stride : (k+1)*stride]
		for j := 1; j <= n; j++ {
			for i := k - 1; i < j; i++ {
				if prev[i] >= inf {
					continue
				}
				// cost(i,j): energy of one bank holding blocks [i,j),
				// including its leakage (select overhead depends on the
				// final bank count and is added per k below).
				c := prev[i] + readE[j-i]*energy.PJ(preR[j]-preR[i]) +
					writeE[j-i]*energy.PJ(preW[j]-preW[i]) +
					leakE[j-i]
				if c < row[j] {
					row[j] = c
					cutRow[j] = i
				}
			}
		}
	}
	total := spec.TotalAccesses()
	bestK, bestE := 1, inf
	for k := 1; k <= maxBanks; k++ {
		if dp[k*stride+n] >= inf {
			continue
		}
		e := dp[k*stride+n] + m.SelectEnergy(k)*energy.PJ(total)
		if e < bestE {
			bestE = e
			bestK = k
		}
	}
	// Reconstruct the cuts.
	banks := make([]Bank, 0, bestK)
	j := n
	for k := bestK; k >= 1; k-- {
		i := cut[k*stride+j]
		banks = append(banks, Bank{
			FirstBlock: i,
			NumBlocks:  j - i,
			SizeBytes:  pow2Ceil(uint32(j-i) * spec.BlockSize),
			Reads:      preR[j] - preR[i],
			Writes:     preW[j] - preW[i],
		})
		j = i
	}
	// Reverse into ascending block order.
	for l, r := 0, len(banks)-1; l < r; l, r = l+1, r-1 {
		banks[l], banks[r] = banks[r], banks[l]
	}
	return &Partition{Banks: banks}, bestE, nil
}

// oracleSpec draws a spec for the oracle comparison: up to 300 blocks so
// several prune chunks and capacity runs are in play, block sizes 16 to
// 1024, a share of zero-count blocks, and optionally counts near 2^52 or far beyond.
func oracleSpec(r *rand.Rand) *Spec {
	n := 1 + r.Intn(300)
	spec := &Spec{
		BlockSize: 16 << r.Intn(7),
		Blocks:    make([]BlockStats, n),
		Cycles:    uint64(r.Intn(1 << 20)),
	}
	// Huge counts put the totals just below 2^53, where float prefix
	// sums are still exact, or past it, where they are not.
	var huge uint64
	switch r.Intn(6) {
	case 0:
		huge = 1 << 52
	case 1:
		huge = 1 << 60
	}
	for i := range spec.Blocks {
		switch {
		case r.Intn(5) == 0: // zero-count block
		case huge > 0:
			c := huge/uint64(n) - uint64(r.Intn(1000))
			spec.Blocks[i] = BlockStats{Reads: c + c/2, Writes: c / 3}
		case r.Intn(4) == 0:
			spec.Blocks[i] = BlockStats{Reads: uint64(r.Intn(100000)), Writes: uint64(r.Intn(20000))}
		default:
			spec.Blocks[i] = BlockStats{Reads: uint64(r.Intn(200)), Writes: uint64(r.Intn(50))}
		}
	}
	return spec
}

// oracleModel returns the default model or a perturbed but valid one.
func oracleModel(r *rand.Rand) energy.MemoryModel {
	m := energy.DefaultMemoryModel()
	if r.Intn(2) == 0 {
		return m
	}
	m.ReadE0 *= energy.PJ(0.2 + 2*r.Float64())
	m.WriteE0 *= energy.PJ(0.2 + 2*r.Float64())
	m.KSize *= energy.PJ(0.2 + 5*r.Float64())
	m.SizeExp = 0.3 + 0.7*r.Float64()
	m.WritePenalty = 1 + r.Float64()
	m.LeakPerByteCycle *= energy.PJ(0.1 + 10*r.Float64())
	m.DecoderE *= energy.PJ(0.2 + 3*r.Float64())
	return m
}

// TestOptimalMatchesOracle: the pruned DP returns exactly the oracle's
// partition and the same energy bits, for K from 1 to 32.
func TestOptimalMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		spec := oracleSpec(r)
		m := oracleModel(r)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(32)
		got, gotE, err := Optimal(spec, k, m)
		if err != nil {
			t.Fatal(err)
		}
		want, wantE, err := refOptimal(spec, k, m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(gotE)) != math.Float64bits(float64(wantE)) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d blocks of %dB, K=%d): got %v %v, oracle %v %v",
				trial, len(spec.Blocks), spec.BlockSize, k, gotE, got, wantE, want)
		}
	}
}

// TestOptimalTiesMatchOracle: with identical blocks many split points
// cost exactly the same, so the lowest-index tie rule decides the cuts.
func TestOptimalTiesMatchOracle(t *testing.T) {
	for _, n := range []int{1, 2, 15, 16, 17, 33, 64, 100} {
		for _, per := range []uint64{0, 1, 1000} {
			spec := &Spec{BlockSize: 64, Blocks: make([]BlockStats, n), Cycles: 1000}
			for i := range spec.Blocks {
				spec.Blocks[i] = BlockStats{Reads: per, Writes: per / 2}
			}
			for _, k := range []int{1, 2, 3, 8, 32} {
				got, gotE, _ := Optimal(spec, k, model())
				want, wantE, _ := refOptimal(spec, k, model())
				if math.Float64bits(float64(gotE)) != math.Float64bits(float64(wantE)) || !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d per=%d K=%d: got %v %v, oracle %v %v", n, per, k, gotE, got, wantE, want)
				}
			}
		}
	}
}

// TestOptimalSparseMatchesOracle: mostly-zero specs with counts of 0 or
// 1, often without leakage, make exact cost ties and exact chunk bounds
// common, so the lowest-index tie rule of both the scan and the chunk
// skip decides the cuts.
func TestOptimalSparseMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(70)
		spec := &Spec{BlockSize: 16 << r.Intn(3), Blocks: make([]BlockStats, n), Cycles: uint64(r.Intn(3) * 1000)}
		density := r.Intn(10)
		for i := range spec.Blocks {
			if r.Intn(10) < density {
				spec.Blocks[i] = BlockStats{Reads: uint64(r.Intn(2)), Writes: uint64(r.Intn(4) / 3)}
			}
		}
		k := 1 + r.Intn(6)
		got, gotE, _ := Optimal(spec, k, model())
		want, wantE, _ := refOptimal(spec, k, model())
		if math.Float64bits(float64(gotE)) != math.Float64bits(float64(wantE)) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d blocks, K=%d): got %v %+v, oracle %v %+v", trial, n, k, gotE, got.Banks, wantE, want.Banks)
		}
	}
}

// e1Spec profiles an E1-shaped synthetic application: a 128 KiB image
// with one hot 1 KiB region in 16, the rest touched at random, in 64 B
// blocks (about 2000 occupied).
func e1Spec(tb testing.TB) *Spec {
	var regions []trace.Region
	for i := uint32(0); i < 128; i++ {
		r := trace.Region{Base: i << 10, Size: 1 << 10, Weight: 1}
		if i%16 == 0 {
			r.Weight, r.Stride = 150, 4
		}
		regions = append(regions, r)
	}
	tr := trace.Synthesize(trace.SynthConfig{Seed: 11, N: 100_000, Regions: regions, WriteFraction: 0.3})
	spec, _, err := SpecFromTrace(tr, 64, 300_000)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// BenchmarkOptimal times one E1-sized DP: an e1Spec into up to 4 banks.
func BenchmarkOptimal(b *testing.B) {
	spec := e1Spec(b)
	m := energy.DefaultMemoryModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Optimal(spec, 4, m); err != nil {
			b.Fatal(err)
		}
	}
}
