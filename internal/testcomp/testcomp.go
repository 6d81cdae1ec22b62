// Package testcomp implements scan test-data compression, reproducing two
// results of DATE'03 session 2C:
//
//   - 2C.3 (Knieser et al., "A Technique for High Ratio LZW Compression"):
//     scan test patterns are mostly don't-cares; filling the X bits so the
//     resulting byte stream is repetitive lets a dictionary coder (LZW)
//     reach high compression ratios, far beyond what 0-fill achieves.
//
//   - 2C.1 (Rao & Orailoglu, "Virtual Compression through Test Vector
//     Stitching"): consecutive scan vectors can overlap when the suffix of
//     one is compatible (on specified bits) with the prefix of the next,
//     cutting test application time with zero hardware overhead.
//
// The LZW codec is a real encoder/decoder pair (property-tested lossless);
// patterns are ternary strings over {0, 1, X}.
//
//lint:hotpath
package testcomp

import (
	"fmt"
	"math/rand"
)

// Cell is one scan cell value.
type Cell byte

// Scan cell values.
const (
	Zero Cell = iota
	One
	X
)

// Pattern is one scan vector.
type Pattern []Cell

// CareDensity returns the fraction of specified (non-X) cells.
func (p Pattern) CareDensity() float64 {
	if len(p) == 0 {
		return 0
	}
	n := 0
	for _, c := range p {
		if c != X {
			n++
		}
	}
	return float64(n) / float64(len(p))
}

// Generate creates n patterns of the given length with the given care-bit
// density; specified bits appear in small clusters, as ATPG produces.
func Generate(seed int64, n, length int, careDensity float64) []Pattern {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pattern, n)
	cells := make(Pattern, n*length)
	for i := range out {
		p := cells[i*length : (i+1)*length : (i+1)*length]
		for j := range p {
			p[j] = X
		}
		// Place clusters of specified bits until density is reached.
		want := int(careDensity * float64(length))
		placed := 0
		for placed < want {
			pos := rng.Intn(length)
			run := 1 + rng.Intn(4)
			for k := 0; k < run && pos+k < length && placed < want; k++ {
				if p[pos+k] == X {
					placed++
				}
				p[pos+k] = Cell(rng.Intn(2))
			}
		}
		out[i] = p
	}
	return out
}

// FillPolicy decides the values of don't-care cells before compression.
type FillPolicy int

// Fill policies.
const (
	// FillZero sets every X to 0 (the naive baseline).
	FillZero FillPolicy = iota
	// FillRepeat copies the previous cell value into each X, producing
	// long runs — the dictionary-coder-friendly fill of the paper.
	FillRepeat
	// FillRandom sets X randomly (the adversarial control).
	FillRandom
)

// String names the policy.
func (f FillPolicy) String() string {
	switch f {
	case FillZero:
		return "0-fill"
	case FillRepeat:
		return "repeat-fill"
	case FillRandom:
		return "random-fill"
	}
	return "?"
}

// Fill resolves the don't-cares of a pattern sequence into a packed byte
// stream (8 cells per byte, MSB first).
func Fill(patterns []Pattern, policy FillPolicy, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	cells := 0
	for _, p := range patterns {
		cells += len(p)
	}
	out := make([]byte, (cells+7)/8)
	i := 0
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
			out[i/8] |= b << uint(7-i%8)
			i++
		}
	}
	return out
}

// lzwMaxCodes is the 12-bit LZW dictionary size; both sides reset to the
// 256 single-byte codes when it fills.
const lzwMaxCodes = 1 << 12

// LZWEncode compresses data with a 12-bit-code LZW dictionary (reset when
// full), returning the code stream.
func LZWEncode(data []byte) []uint16 {
	if len(data) == 0 {
		return nil
	}
	// Every dictionary string is a shorter one plus a byte, so the
	// dictionary maps (prefix code, byte) to a code; the single bytes are
	// implicit.
	dict := make(map[uint32]uint16, lzwMaxCodes)
	next := uint16(256)
	out := make([]uint16, 0, len(data)/4+1)
	cur := uint16(data[0])
	for _, b := range data[1:] {
		key := uint32(cur)<<8 | uint32(b)
		if code, ok := dict[key]; ok {
			cur = code
			continue
		}
		out = append(out, cur)
		if next < lzwMaxCodes {
			dict[key] = next
			next++
		} else {
			// Dictionary full: reset (keeps the decoder in sync).
			clear(dict)
			next = 256
		}
		cur = uint16(b)
	}
	return append(out, cur)
}

// LZWDecode inverts LZWEncode.
func LZWDecode(codes []uint16) ([]byte, error) {
	// Each multi-byte entry is the previous entry plus the first byte of
	// the one after it, and the decoder writes those two back to back, so
	// every entry is a run of the output: code c is out[at[c]:at[c]+n[c]].
	var at, n [lzwMaxCodes]int
	next := 256
	out := make([]byte, 0, 2*len(codes))
	prevAt, prevN := 0, 0
	for _, code := range codes {
		start := len(out)
		switch c := int(code); {
		case c < 256:
			out = append(out, byte(c))
		case c < next:
			out = append(out, out[at[c]:at[c]+n[c]]...)
		case c == next && prevN > 0 && next < lzwMaxCodes:
			// The classic KwKwK case: the code references the entry the
			// encoder added in the same step.
			out = append(out, out[prevAt:prevAt+prevN]...)
			out = append(out, out[prevAt])
		default:
			return nil, fmt.Errorf("testcomp: invalid LZW code %d", code)
		}
		// Pending dictionary add for the previous code — or the mirrored
		// encoder reset when the dictionary is full. Right after a reset
		// the encoder only ever emits single-byte codes (< 256), so
		// resolving against the pre-reset dictionary above is safe.
		if prevN > 0 {
			if next < lzwMaxCodes {
				at[next], n[next] = prevAt, prevN+1
				next++
			} else {
				next = 256
			}
		}
		prevAt, prevN = start, len(out)-start
	}
	return out, nil
}

// Ratio returns original bits / compressed bits for a 12-bit code stream.
func Ratio(originalBytes int, codes []uint16) float64 {
	if len(codes) == 0 {
		return 0
	}
	return float64(originalBytes*8) / float64(len(codes)*12)
}

// --- Vector stitching (2C.1) ---

// planes is a pattern packed 64 cells to a word, cell i at bit i%64 of
// word i/64: care has the bits of specified cells, val those of One
// cells. Cells other than Zero and One count as X.
type planes struct {
	care, val []uint64
	n         int
}

// packAll packs every pattern, all into one shared backing array.
func packAll(ps []Pattern) []planes {
	words := 0
	for _, p := range ps {
		words += 2 * ((len(p) + 63) / 64)
	}
	buf := make([]uint64, words)
	out := make([]planes, len(ps))
	for i, p := range ps {
		w := (len(p) + 63) / 64
		pl := planes{care: buf[:w:w], val: buf[w : 2*w : 2*w], n: len(p)}
		buf = buf[2*w:]
		for j, c := range p {
			bit := uint64(1) << (j % 64)
			switch c {
			case Zero:
				pl.care[j/64] |= bit
			case One:
				pl.care[j/64] |= bit
				pl.val[j/64] |= bit
			}
		}
		out[i] = pl
	}
	return out
}

// wordAt returns the 64 cells of x starting at cell off; cells past the
// end read as zero.
func wordAt(x []uint64, off int) uint64 {
	w, s := off/64, uint(off%64)
	v := x[w] >> s
	if s != 0 && w+1 < len(x) {
		v |= x[w+1] << (64 - s)
	}
	return v
}

// compatible reports whether the last k cells of a match the first k
// cells of b on every cell where both are specified. The compared window
// ends at the end of a, and cells past it read as X, so the last word
// needs no mask.
func compatible(a, b planes, k int) bool {
	off := a.n - k
	for i := 0; i < k; i += 64 {
		if (wordAt(a.val, off+i)^b.val[i/64])&wordAt(a.care, off+i)&b.care[i/64] != 0 {
			return false
		}
	}
	return true
}

// maxOverlap returns the largest k > floor such that the last k cells of
// a are compatible with the first k cells of b, or 0 if there is none.
func maxOverlap(a, b planes, floor int) int {
	for k := min(a.n, b.n); k > max(floor, 0); k-- {
		if compatible(a, b, k) {
			return k
		}
	}
	return 0
}

// MaxOverlap returns the largest k such that the last k cells of a are
// compatible with the first k cells of b.
func MaxOverlap(a, b Pattern) int {
	pl := packAll([]Pattern{a, b})
	return maxOverlap(pl[0], pl[1], 0)
}

// StitchResult reports the outcome of greedy stitching.
type StitchResult struct {
	// Order is the vector application order.
	Order []int
	// BaselineCycles is n*length (each vector scanned in full).
	BaselineCycles int
	// StitchedCycles is the total after overlapping.
	StitchedCycles int
}

// Saving returns the test-time reduction fraction.
func (r StitchResult) Saving() float64 {
	if r.BaselineCycles == 0 {
		return 0
	}
	return 1 - float64(r.StitchedCycles)/float64(r.BaselineCycles)
}

// Responses derives deterministic fully-specified capture responses for a
// pattern set (a stand-in for fault simulation: the DUT's response to
// vector i). While the next vector shifts in, this response shifts out
// through the same chain, so it is the response — not the previous
// vector — that the next vector can overlap with.
func Responses(patterns []Pattern, seed int64) []Pattern {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, p := range patterns {
		total += len(p)
	}
	cells := make(Pattern, total)
	out := make([]Pattern, len(patterns))
	for i, p := range patterns {
		r := cells[:len(p):len(p)]
		cells = cells[len(p):]
		for j := range r {
			r[j] = Cell(rng.Intn(2))
		}
		out[i] = r
	}
	return out
}

// Stitch greedily orders the patterns to maximize the overlap between each
// vector's capture response and the next vector's specified bits
// (nearest-neighbour chaining starting from vector 0). Responses must be
// index-aligned with patterns. Each vector costs its own length in scan
// cycles, less its overlap with the response before it.
func Stitch(patterns, responses []Pattern) StitchResult {
	n := len(patterns)
	res := StitchResult{}
	if n == 0 {
		return res
	}
	ps, rs := packAll(patterns), packAll(responses[:n])
	for _, p := range patterns {
		res.BaselineCycles += len(p)
	}
	used := make([]bool, n)
	cur := 0
	used[0] = true
	res.Order = make([]int, 1, n)
	total := len(patterns[0])
	for placed := 1; placed < n; placed++ {
		best, bestOv := -1, -1
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			// Only an overlap above the best so far can displace it.
			ov := maxOverlap(rs[cur], ps[j], bestOv)
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
