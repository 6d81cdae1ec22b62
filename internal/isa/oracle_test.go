package isa_test

import (
	"math/rand"
	"testing"

	"lpmem/internal/isa"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// refTrace is the original recorder, kept as the oracle for the chunked
// one: a Trace attached to the CPU with a 4096-access hint that grows by
// plain append, one access at a time.
type refTrace struct {
	Trace *trace.Trace
}

func (r *refTrace) record(a trace.Access) {
	if r.Trace != nil {
		r.Trace.Append(a)
	}
}

// refRunTraced is RunTraced over refTrace. It hands each step's one or
// two accesses to the plain-append recorder, so the chunked recorder
// never crosses a chunk boundary here.
func refRunTraced(c *isa.CPU, maxSteps int) (*trace.Trace, error) {
	r := refTrace{Trace: trace.New(4096)}
	for i := 0; i < maxSteps; i++ {
		if c.Halted() {
			return r.Trace, nil
		}
		c.StartTrace()
		err := c.Step()
		for _, a := range c.TakeTrace().Accesses {
			r.record(a)
		}
		if err != nil {
			return nil, err
		}
	}
	if c.Halted() {
		return r.Trace, nil
	}
	return nil, isa.ErrRunaway
}

// traceBothWays runs prog twice from the same initial state, once with
// RunTraced and once with the oracle, and requires identical traces,
// errors and counters.
func traceBothWays(t *testing.T, name string, prog *isa.Program, init func(*isa.CPU), maxSteps int) {
	t.Helper()
	got, want := isa.NewCPU(prog), isa.NewCPU(prog)
	if init != nil {
		init(got)
		init(want)
	}
	gt, gerr := got.RunTraced(maxSteps)
	wt, werr := refRunTraced(want, maxSteps)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: err = %v, oracle err = %v", name, gerr, werr)
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Fatalf("%s: cycles/instructions %d/%d, oracle %d/%d",
			name, got.Cycles, got.Instructions, want.Cycles, want.Instructions)
	}
	if gerr != nil {
		return
	}
	if gt.Len() != wt.Len() {
		t.Fatalf("%s: %d accesses, oracle %d", name, gt.Len(), wt.Len())
	}
	for i := range gt.Accesses {
		if gt.Accesses[i] != wt.Accesses[i] {
			t.Fatalf("%s: access %d = %+v, oracle %+v", name, i, gt.Accesses[i], wt.Accesses[i])
		}
	}
}

func TestRecorderMatchesOracleOnKernels(t *testing.T) {
	for _, k := range workloads.All() {
		inst := k.Build(1)
		traceBothWays(t, k.Name, inst.Prog, inst.Init, inst.MaxSteps)
	}
}

// longProgram builds a seeded loop whose trace spans several recording
// chunks: word, half and byte loads and stores (some straddling a page),
// pushes and pops on every iteration.
func longProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder()
	b.Movi(1, 0)
	b.Movi(2, int32(5000+rng.Intn(5000)))
	b.MoviU(3, isa.DefaultDataBase+uint32(4096-2-rng.Intn(3)))
	b.Label("loop")
	b.Andi(4, 1, int32(255+rng.Intn(1024)))
	b.Shli(4, 4, 2)
	b.Add(5, 3, 4)
	b.Lw(6, 5, 0)
	b.Add(6, 6, 1)
	b.Sw(6, 5, 0)
	b.Sh(1, 5, int32(1+rng.Intn(4)))
	b.Lh(7, 5, 2)
	b.Sb(7, 5, int32(rng.Intn(8)))
	b.Lb(8, 5, 3)
	b.Push(8)
	b.Pop(9)
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustAssemble()
}

func TestRecorderMatchesOracleOnLongPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 4; i++ {
		prog := longProgram(rng)
		traceBothWays(t, "long", prog, nil, 1<<20)
	}
	// A step budget that runs out mid-trace must fail both ways alike.
	traceBothWays(t, "runaway", longProgram(rng), nil, 30000)
}

// TestMemoryMatchesByteMap checks the page-cached word fast path against
// a byte map under random mixes of word, half and byte accesses, with
// words straddling a page and addresses wrapping past 0xFFFFFFFF.
func TestMemoryMatchesByteMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bases := []uint32{0x1000, 0x2FFE, 0xFFFFFFFC, 0xFFFFFFFE, 0x7FFFF}
	var m isa.Memory
	ref := map[uint32]byte{}
	refWord := func(a uint32) uint32 {
		return uint32(ref[a]) | uint32(ref[a+1])<<8 | uint32(ref[a+2])<<16 | uint32(ref[a+3])<<24
	}
	for i := 0; i < 20000; i++ {
		addr := bases[rng.Intn(len(bases))] + uint32(rng.Intn(16))
		v := rng.Uint32()
		switch rng.Intn(5) {
		case 0:
			m.WriteWord(addr, v)
			for k := uint32(0); k < 4; k++ {
				ref[addr+k] = byte(v >> (8 * k))
			}
		case 1:
			m.WriteHalf(addr, uint16(v))
			ref[addr], ref[addr+1] = byte(v), byte(v>>8)
		case 2:
			m.StoreByte(addr, byte(v))
			ref[addr] = byte(v)
		case 3:
			if got, want := m.ReadWord(addr), refWord(addr); got != want {
				t.Fatalf("ReadWord(%#x) = %#x, want %#x", addr, got, want)
			}
		case 4:
			if got, want := m.ReadHalf(addr), uint16(ref[addr])|uint16(ref[addr+1])<<8; got != want {
				t.Fatalf("ReadHalf(%#x) = %#x, want %#x", addr, got, want)
			}
		}
	}
}
