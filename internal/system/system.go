// Package system ties the substrates into a whole embedded platform:
// a µRISC core with split L1 instruction and data caches in front of a
// single main memory, with miss-stall timing and an end-to-end energy
// breakdown. It is the "full platform" view used by examples and
// platform-level ablations; the per-technique experiments use the
// individual substrates directly.
package system

import (
	"fmt"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/isa"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// Config describes the platform.
type Config struct {
	// ICache and DCache are the L1 geometries.
	ICache, DCache cache.Config
	// MissPenalty is the main-memory access latency in cycles.
	MissPenalty uint64
	// Mem is the SRAM/DRAM energy model; main memory is charged at
	// MainMemorySize.
	Mem energy.MemoryModel
	// CacheModel charges L1 accesses.
	CacheModel energy.CacheModel
	// MainMemorySize sizes the main-memory energy (bytes).
	MainMemorySize uint32
}

// DefaultConfig returns a typical embedded platform: 4 KiB I-cache,
// 8 KiB D-cache, 20-cycle miss penalty.
func DefaultConfig() Config {
	return Config{
		ICache:         cache.Config{Sets: 64, Ways: 2, LineSize: 32, WriteBack: false, WriteAllocate: false},
		DCache:         cache.Config{Sets: 64, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true},
		MissPenalty:    20,
		Mem:            energy.DefaultMemoryModel(),
		CacheModel:     energy.DefaultCacheModel(),
		MainMemorySize: 1 << 20,
	}
}

// Result is the platform-level outcome of one run.
type Result struct {
	// CoreCycles is the pipeline cycle count without memory stalls.
	CoreCycles uint64
	// StallCycles is added by cache misses.
	StallCycles uint64
	// TotalCycles = CoreCycles + StallCycles.
	TotalCycles uint64
	// IStats and DStats are the cache statistics.
	IStats, DStats cache.Stats
	// CacheEnergy, MemEnergy and LeakEnergy decompose platform energy.
	CacheEnergy energy.PJ
	MemEnergy   energy.PJ
	LeakEnergy  energy.PJ
}

// TotalEnergy sums the breakdown.
func (r Result) TotalEnergy() energy.PJ { return r.CacheEnergy + r.MemEnergy + r.LeakEnergy }

// CPI returns cycles per instruction given the retired count.
func (r Result) CPI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(r.TotalCycles) / float64(instructions)
}

// Run executes a workload instance on the platform.
func Run(inst *workloads.Instance, cfg Config) (*Result, error) {
	cpu := isa.NewCPU(inst.Prog)
	if inst.Init != nil {
		inst.Init(cpu)
	}
	tr, err := cpu.RunTraced(inst.MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("system: %s: %w", inst.Name, err)
	}
	if inst.Check != nil {
		if err := inst.Check(cpu); err != nil {
			return nil, fmt.Errorf("system: %s: check failed: %w", inst.Name, err)
		}
	}
	return Replay(tr, cpu.Cycles, cfg)
}

// Replay runs an existing trace through the platform's caches and
// computes timing and energy. coreCycles is the pipeline-only cycle
// count.
func Replay(tr *trace.Trace, coreCycles uint64, cfg Config) (*Result, error) {
	ic, err := cache.New(cfg.ICache, nil)
	if err != nil {
		return nil, err
	}
	dc, err := cache.New(cfg.DCache, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{CoreCycles: coreCycles}
	iProbe := cfg.CacheModel.ConventionalAccess(cfg.ICache.Ways)
	dProbe := cfg.CacheModel.ConventionalAccess(cfg.DCache.Ways)
	memRead := cfg.Mem.ReadEnergy(cfg.MainMemorySize)
	memWrite := cfg.Mem.WriteEnergy(cfg.MainMemorySize)
	lineWords := uint64(cfg.DCache.LineSize / 4)

	for _, a := range tr.Accesses {
		if a.Kind == trace.Fetch {
			res.CacheEnergy += iProbe
			r := ic.Access(a.Addr, false, a.Width, a.Value)
			if !r.Hit {
				res.StallCycles += cfg.MissPenalty
				res.MemEnergy += memRead * energy.PJ(lineWords)
			}
			continue
		}
		res.CacheEnergy += dProbe
		r := dc.Access(a.Addr, a.Kind == trace.Write, a.Width, a.Value)
		if !r.Hit {
			res.StallCycles += cfg.MissPenalty
			res.MemEnergy += memRead * energy.PJ(lineWords)
		}
		if r.WroteBack {
			res.MemEnergy += memWrite * energy.PJ(lineWords)
		}
	}
	res.TotalCycles = res.CoreCycles + res.StallCycles
	res.IStats = ic.Stats()
	res.DStats = dc.Stats()
	totalOnChip := uint32(cfg.ICache.SizeBytes() + cfg.DCache.SizeBytes())
	res.LeakEnergy = cfg.Mem.Leakage(totalOnChip, res.TotalCycles)
	return res, nil
}
