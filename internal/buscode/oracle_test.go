package buscode

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// refMeasure is the original Measure, kept as the oracle: it materialises
// every pattern of the stream, then tests each adjacent line pair of each
// cycle one at a time.
func refMeasure(enc Encoder, words []uint32) Measurement {
	enc.Reset()
	var patterns []uint64
	for _, w := range words {
		patterns = enc.Encode(patterns, w)
	}
	m := Measurement{Cycles: uint64(len(patterns)), Lines: enc.Lines()}
	for i := 1; i < len(patterns); i++ {
		prev, cur := patterns[i-1], patterns[i]
		m.Transitions += uint64(bits.OnesCount64(prev ^ cur))
		rise := ^prev & cur
		fall := prev & ^cur
		for l := 0; l < enc.Lines()-1; l++ {
			a := rise>>uint(l)&1 == 1
			b := fall>>uint(l+1)&1 == 1
			c := fall>>uint(l)&1 == 1
			d := rise>>uint(l+1)&1 == 1
			if (a && b) || (c && d) {
				m.Couplings++
			}
		}
	}
	return m
}

// wide is a custom encoder of any line count, 64 and beyond included. It
// emits one to five pseudo-random full 64-bit patterns per word, so
// patterns carry bits above Lines and a word can outgrow Measure's
// buffer.
type wide struct {
	lines int
	state uint64
}

func (w *wide) Name() string { return fmt.Sprintf("wide%d", w.lines) }
func (w *wide) Lines() int   { return w.lines }
func (w *wide) Reset()       { w.state = 0 }

func (w *wide) Encode(dst []uint64, word uint32) []uint64 {
	for i := uint32(0); i <= word%5; i++ {
		w.state = w.state*6364136223846793005 + uint64(word) + 1442695040888963407
		dst = append(dst, w.state)
	}
	return dst
}

// oracleEncoders covers every encoder in the package at 1, 24, 27, 32,
// 33 and 64+ lines.
func oracleEncoders() []Encoder {
	return []Encoder{
		&Binary{}, &Binary{Width: 1}, &Binary{Width: 24},
		&Gray{}, &Gray{Width: 24},
		&T0{Stride: 4}, &T0{Stride: 4, Width: 23},
		&BusInvert{}, &BusInvert{Width: 23},
		&Shielded{Stride: 4},
		&Chromatic{}, RawPixel{},
		&wide{lines: 0}, &wide{lines: 1}, &wide{lines: 33},
		&wide{lines: 64}, &wide{lines: 65}, &wide{lines: 100},
	}
}

func TestMeasureMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	streams := [][]uint32{nil, {}, {0xDEADBEEF}, {4, 8}, sequentialAddrs(1, 3000, 0.1)}
	for i := 0; i < 30; i++ {
		words := make([]uint32, rng.Intn(400))
		w := rng.Uint32()
		for j := range words {
			// Mix in-sequence runs (T0/Shielded single-cycle words) with
			// random jumps.
			if rng.Intn(3) == 0 {
				w = rng.Uint32()
			} else {
				w += 4
			}
			words[j] = w
		}
		streams = append(streams, words)
	}
	for _, enc := range oracleEncoders() {
		for si, words := range streams {
			got, want := Measure(enc, words), refMeasure(enc, words)
			if got != want {
				t.Fatalf("%s (%d lines), stream %d (%d words): got %+v, oracle %+v",
					enc.Name(), enc.Lines(), si, len(words), got, want)
			}
		}
	}
}

var measureSink Measurement

// BenchmarkMeasure drives an E5-sized, mostly sequential address stream
// through each address encoder.
func BenchmarkMeasure(b *testing.B) {
	addrs := sequentialAddrs(1, 100000, 0.05)
	for _, enc := range []Encoder{&Binary{}, &T0{Stride: 4}, &BusInvert{}, &Shielded{Stride: 4}} {
		b.Run(enc.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				measureSink = Measure(enc, addrs)
			}
		})
	}
}
