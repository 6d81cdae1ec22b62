package testcomp

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The reference implementations below are the original byte-at-a-time
// routines, kept as oracles for the packed ones.

func refCompatible(a, b Pattern, offset int) bool {
	for i := offset; i < len(a) && i-offset < len(b); i++ {
		ca, cb := a[i], b[i-offset]
		if ca != X && cb != X && ca != cb {
			return false
		}
	}
	return true
}

func refMaxOverlap(a, b Pattern) int {
	max := len(a)
	if len(b) < max {
		max = len(b)
	}
	for k := max; k > 0; k-- {
		if refCompatible(a, b, len(a)-k) {
			return k
		}
	}
	return 0
}

// refStitch is the original greedy chaining with each vector charged its
// own length.
func refStitch(patterns, responses []Pattern) StitchResult {
	n := len(patterns)
	res := StitchResult{}
	if n == 0 {
		return res
	}
	for _, p := range patterns {
		res.BaselineCycles += len(p)
	}
	used := make([]bool, n)
	cur := 0
	used[0] = true
	res.Order = []int{0}
	total := len(patterns[0])
	for placed := 1; placed < n; placed++ {
		best, bestOv := -1, -1
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			ov := refMaxOverlap(responses[cur], patterns[j])
			if ov > bestOv {
				best, bestOv = j, ov
			}
		}
		used[best] = true
		res.Order = append(res.Order, best)
		total += len(patterns[best]) - bestOv
		cur = best
	}
	res.StitchedCycles = total
	return res
}

func refFill(patterns []Pattern, policy FillPolicy, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var bits []byte
	last := byte(0)
	for _, p := range patterns {
		for _, c := range p {
			var b byte
			switch c {
			case Zero:
				b = 0
			case One:
				b = 1
			default:
				switch policy {
				case FillZero:
					b = 0
				case FillRepeat:
					b = last
				default:
					b = byte(rng.Intn(2))
				}
			}
			last = b
			bits = append(bits, b)
		}
	}
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b == 1 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

func refLZWEncode(data []byte) []uint16 {
	const maxCodes = 1 << 12
	dict := make(map[string]uint16, maxCodes)
	for i := 0; i < 256; i++ {
		dict[string([]byte{byte(i)})] = uint16(i)
	}
	next := uint16(256)
	var out []uint16
	var cur []byte
	for _, b := range data {
		ext := append(cur, b)
		if _, ok := dict[string(ext)]; ok {
			cur = ext
			continue
		}
		out = append(out, dict[string(cur)])
		if int(next) < maxCodes {
			dict[string(ext)] = next
			next++
		} else {
			dict = make(map[string]uint16, maxCodes)
			for i := 0; i < 256; i++ {
				dict[string([]byte{byte(i)})] = uint16(i)
			}
			next = 256
		}
		cur = []byte{b}
	}
	if len(cur) > 0 {
		out = append(out, dict[string(cur)])
	}
	return out
}

func refLZWDecode(codes []uint16) ([]byte, error) {
	const maxCodes = 1 << 12
	dict := make(map[uint16][]byte, maxCodes)
	reset := func() uint16 {
		dict = make(map[uint16][]byte, maxCodes)
		for i := 0; i < 256; i++ {
			dict[uint16(i)] = []byte{byte(i)}
		}
		return 256
	}
	next := reset()
	var out []byte
	var prev []byte
	for _, code := range codes {
		var entry []byte
		if e, ok := dict[code]; ok {
			entry = append([]byte(nil), e...)
		} else if int(code) == int(next) && len(prev) > 0 && int(next) < maxCodes {
			entry = append(append([]byte(nil), prev...), prev[0])
		} else {
			return nil, fmt.Errorf("testcomp: invalid LZW code %d", code)
		}
		out = append(out, entry...)
		if len(prev) > 0 {
			if int(next) < maxCodes {
				dict[next] = append(append([]byte(nil), prev...), entry[0])
				next++
			} else {
				next = reset()
			}
		}
		prev = entry
	}
	return out, nil
}

// randomPattern draws a ternary pattern with the given care density.
func randomPattern(r *rand.Rand, n int, care float64) Pattern {
	p := make(Pattern, n)
	for i := range p {
		p[i] = X
		if r.Float64() < care {
			p[i] = Cell(r.Intn(2))
		}
	}
	return p
}

// randomLength avoids multiples of 64 most of the time and straddles
// word boundaries.
func randomLength(r *rand.Rand) int {
	return []int{0, 1, 7, 63, 64, 65, 100, 127, 128, 129, 200, 301}[r.Intn(12)] + r.Intn(3)
}

// TestMaxOverlapMatchesReference: the bit-plane overlap equals the
// cell-by-cell one for random ternary patterns of unequal lengths that
// are mostly not multiples of 64, across care densities.
func TestMaxOverlapMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for k := 0; k < 3000; k++ {
		care := []float64{0, 0.02, 0.1, 0.5, 1}[r.Intn(5)]
		a := randomPattern(r, randomLength(r), care)
		b := randomPattern(r, randomLength(r), []float64{0.05, 0.3, 1}[r.Intn(3)])
		if got, want := MaxOverlap(a, b), refMaxOverlap(a, b); got != want {
			t.Fatalf("case %d: MaxOverlap(len %d, len %d) = %d, want %d", k, len(a), len(b), got, want)
		}
	}
}

// TestStitchMatchesReference: order and cycle counts match the oracle on
// equal-length sets like the experiments' and on mixed-length sets.
func TestStitchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for k := 0; k < 40; k++ {
		n := 1 + r.Intn(25)
		fixed := 1 + r.Intn(300)
		ps := make([]Pattern, n)
		for i := range ps {
			length := fixed
			if k%2 == 1 {
				length = 1 + randomLength(r)
			}
			ps[i] = randomPattern(r, length, []float64{0.02, 0.05, 0.2}[r.Intn(3)])
		}
		rs := Responses(ps, int64(k))
		got, want := Stitch(ps, rs), refStitch(ps, rs)
		if !slices.Equal(got.Order, want.Order) || got.BaselineCycles != want.BaselineCycles ||
			got.StitchedCycles != want.StitchedCycles {
			t.Fatalf("case %d: Stitch = %+v, want %+v", k, got, want)
		}
	}
}

// TestFillMatchesReference: direct packing gives the bit-at-a-time
// stream, byte for byte, under every policy.
func TestFillMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for k := 0; k < 50; k++ {
		ps := make([]Pattern, r.Intn(6))
		for i := range ps {
			ps[i] = randomPattern(r, randomLength(r), 0.2)
		}
		for _, pol := range []FillPolicy{FillZero, FillRepeat, FillRandom} {
			if got, want := Fill(ps, pol, int64(k)), refFill(ps, pol, int64(k)); !bytes.Equal(got, want) {
				t.Fatalf("case %d %v: Fill differs from reference", k, pol)
			}
		}
	}
}

// TestLZWMatchesReference: the code-table encoder emits the reference
// code stream, dictionary resets included, and the decoder agrees with
// the reference decoder on valid and corrupted streams alike.
func TestLZWMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for k := 0; k < 40; k++ {
		data := make([]byte, r.Intn(40_000))
		alphabet := 1 + r.Intn(256)
		for i := range data {
			data[i] = byte(r.Intn(alphabet))
			if r.Intn(4) > 0 && i > 0 {
				data[i] = data[i-1]
			}
		}
		codes := LZWEncode(data)
		if want := refLZWEncode(data); !slices.Equal(codes, want) {
			t.Fatalf("case %d: encoder output differs from reference (%d vs %d codes)", k, len(codes), len(want))
		}
		if len(codes) > 0 && k%2 == 1 {
			codes[r.Intn(len(codes))] = uint16(r.Intn(lzwMaxCodes))
		}
		got, err := LZWDecode(codes)
		want, wantErr := refLZWDecode(codes)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("case %d: decode = %v, %d bytes; reference %v, %d bytes", k, err, len(got), wantErr, len(want))
		}
	}
}

// BenchmarkStitch stitches the largest E18 pattern set.
func BenchmarkStitch(b *testing.B) {
	ps := Generate(3, 150, 1024, 0.10)
	rs := Responses(ps, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Stitch(ps, rs)
	}
}
