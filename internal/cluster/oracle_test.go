package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lpmem/internal/trace"
)

// refCluster is the original map-keyed clustering, kept as the oracle for
// Cluster: it rescans the whole window for every candidate at every step.
func refCluster(t *trace.Trace, cfg Config) *Clustering {
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	mask := ^(cfg.BlockSize - 1)
	pair := func(a, b uint32) [2]uint32 {
		if a > b {
			a, b = b, a
		}
		return [2]uint32{a, b}
	}
	freq := make(map[uint32]uint64)
	affinity := make(map[[2]uint32]uint64)
	prev := uint32(0)
	havePrev := false
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		b := a.Addr & mask
		freq[b]++
		if havePrev && prev != b {
			affinity[pair(prev, b)]++
		}
		prev = b
		havePrev = true
	}
	blocks := make([]uint32, 0, len(freq))
	for b := range freq {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool {
		fi, fj := freq[blocks[i]], freq[blocks[j]]
		if fi != fj {
			return fi > fj
		}
		return blocks[i] < blocks[j]
	})
	placed := make([]uint32, 0, len(blocks))
	used := make(map[uint32]bool, len(blocks))
	if len(blocks) > 0 {
		placed = append(placed, blocks[0])
		used[blocks[0]] = true
	}
	for len(placed) < len(blocks) {
		var best uint32
		bestScore := -1.0
		for _, cand := range blocks {
			if used[cand] {
				continue
			}
			score := float64(freq[cand])
			if cfg.AffinityWeight > 0 {
				aff := uint64(0)
				lo := len(placed) - cfg.Window
				if lo < 0 {
					lo = 0
				}
				for _, p := range placed[lo:] {
					aff += affinity[pair(p, cand)]
				}
				score += cfg.AffinityWeight * float64(aff)
			}
			if score > bestScore {
				bestScore = score
				best = cand
			}
		}
		placed = append(placed, best)
		used[best] = true
	}
	c := &Clustering{BlockSize: cfg.BlockSize, NewIndex: make(map[uint32]int, len(placed)), Order: placed}
	for i, b := range placed {
		c.NewIndex[b] = i
	}
	return c
}

// randomTrace draws a trace over a small block universe, so frequencies
// tie often, with bursts of one block, jumps between nearby blocks, and
// instruction fetches mixed in.
func randomTrace(r *rand.Rand, n int, blocks int) *trace.Trace {
	t := trace.New(n)
	cur := uint32(r.Intn(blocks))
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k == 0:
			t.Append(trace.Access{Addr: uint32(r.Intn(1 << 16)), Kind: trace.Fetch, Width: 4})
			continue
		case k < 4:
			cur = uint32(r.Intn(blocks))
		case k < 7:
			cur = uint32((int(cur) + 1 + r.Intn(3)) % blocks)
		}
		kind := trace.Read
		if r.Intn(3) == 0 {
			kind = trace.Write
		}
		t.Append(trace.Access{Addr: cur*256 + uint32(r.Intn(64))*4, Kind: kind, Width: 4})
	}
	return t
}

// TestClusterMatchesReference: on random traces, for windows 1-4 (and
// the 0 default) and affinity weights from none to dominant, the
// dense-index clustering produces exactly the oracle's order and index.
func TestClusterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	weights := []float64{0, -1, 0.05, 0.5, 1, 3, 10}
	for k := 0; k < 120; k++ {
		tr := randomTrace(r, 1+r.Intn(600), 1+r.Intn(80))
		cfg := Config{
			BlockSize:      []uint32{64, 256, 1024}[r.Intn(3)],
			AffinityWeight: weights[r.Intn(len(weights))],
			Window:         r.Intn(5),
		}
		got, err := Cluster(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := refCluster(tr, cfg)
		if !slices.Equal(got.Order, want.Order) {
			t.Fatalf("case %d %+v: order\n got %v\nwant %v", k, cfg, got.Order, want.Order)
		}
		if len(got.NewIndex) != len(want.NewIndex) {
			t.Fatalf("case %d: %d indexed blocks, want %d", k, len(got.NewIndex), len(want.NewIndex))
		}
		for b, i := range want.NewIndex {
			if got.NewIndex[b] != i {
				t.Fatalf("case %d: NewIndex[%#x] = %d, want %d", k, b, got.NewIndex[b], i)
			}
		}
	}
}

// BenchmarkCluster clusters a 200k-access trace over 4096 blocks with
// the experiments' configuration.
func BenchmarkCluster(b *testing.B) {
	tr := randomTrace(rand.New(rand.NewSource(1)), 200_000, 4096)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
