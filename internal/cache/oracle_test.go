package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// refMapBacking is the original MapBacking, kept as the oracle for the
// paged one: one map entry per byte ever written.
type refMapBacking struct {
	m map[uint32]byte
}

func newRefMapBacking() *refMapBacking { return &refMapBacking{m: make(map[uint32]byte)} }

func (b *refMapBacking) ReadLine(addr uint32, dst []byte) {
	for i := range dst {
		dst[i] = b.m[addr+uint32(i)]
	}
}

func (b *refMapBacking) WriteLine(addr uint32, src []byte) {
	for i, v := range src {
		b.m[addr+uint32(i)] = v
	}
}

func (b *refMapBacking) StoreByte(addr uint32, v byte) {
	b.m[addr] = v
}

// TestMapBackingMatchesOracle drives both stores with the same seeded
// mix of line writes, line reads and byte stores, including lines that
// straddle a page, lines that wrap past 0xFFFFFFFF, lines longer than a
// page and reads of never-written memory.
func TestMapBackingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	bases := []uint32{0, 0x1000 - 7, 0x2000, 0x7FFF_F000 - 33, 0xFFFF_FFFF - 20, 0x4000_0000}
	got, want := NewMapBacking(), newRefMapBacking()
	for i := 0; i < 5000; i++ {
		addr := bases[rng.Intn(len(bases))] + uint32(rng.Intn(64))
		n := []int{0, 1, 4, 16, 32, 64, 128, 5000}[rng.Intn(8)]
		switch rng.Intn(3) {
		case 0:
			src := make([]byte, n)
			rng.Read(src)
			got.WriteLine(addr, src)
			want.WriteLine(addr, src)
		case 1:
			v := byte(rng.Intn(256))
			got.StoreByte(addr, v)
			want.StoreByte(addr, v)
		case 2:
			g, w := make([]byte, n), make([]byte, n)
			// Stale bytes in dst must be overwritten, zeroes included.
			rng.Read(g)
			got.ReadLine(addr, g)
			want.ReadLine(addr, w)
			if !bytes.Equal(g, w) {
				t.Fatalf("op %d: ReadLine(%#x, %d) = %x, oracle %x", i, addr, n, g, w)
			}
		}
	}
}

func TestMapBackingReadDoesNotAllocatePages(t *testing.T) {
	b := NewMapBacking()
	dst := make([]byte, 64)
	b.ReadLine(0xFFFF_FFF0, dst)
	if len(b.pages) != 0 {
		t.Fatalf("reading unwritten memory allocated %d pages", len(b.pages))
	}
}

var backingSink byte

// BenchmarkMapBacking writes back and refills 64-byte lines at random
// line addresses of a 4 MiB region, the LLC write-back pattern of the
// NUCA experiments.
func BenchmarkMapBacking(b *testing.B) {
	const lines = 4 << 20 / 64
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 1<<14)
	for i := range addrs {
		addrs[i] = 0x1000_0000 + uint32(rng.Intn(lines))*64
	}
	line := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMapBacking()
		for j, a := range addrs {
			line[0] = byte(j)
			m.WriteLine(a, line)
			m.ReadLine(addrs[(j*7)%len(addrs)], line)
		}
		backingSink = line[0]
	}
}
