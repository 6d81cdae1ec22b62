package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"lpmem/internal/cache"
	"lpmem/internal/nuca"
	"lpmem/internal/sweep"
	"lpmem/internal/trace"
)

const (
	// simAccesses is the length of each seeded trace (single-core and
	// multi-core): about 1M accesses.
	simAccesses = 1 << 20
	simCores    = 8
	simSetups   = 3
	// refAccesses sizes the fixed-seed reference traces whose simulated
	// statistics are pinned in reference.json.
	refAccesses = 1 << 16
	refSeed     = 1
)

// simGeometries are the cache geometries each pass replays the
// single-core trace through: a small, a mid-size and a wide-line cache.
var simGeometries = []cache.Config{
	{Sets: 64, Ways: 2, LineSize: 32, WriteBack: true, WriteAllocate: true},
	{Sets: 256, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true},
	{Sets: 128, Ways: 8, LineSize: 64, WriteBack: true, WriteAllocate: true},
}

// simNUCA is the shared LLC each pass replays the multi-core trace
// through: 8 cores on 8 distance-mapped, compressed banks.
var simNUCA = []nuca.Config{
	{Cores: simCores, Banks: 8, SetsPerBank: 64, Ways: 4, LineSize: 32, Mapping: nuca.MapDistance, Compression: nuca.CompDiff},
	{Cores: simCores, Banks: 4, SetsPerBank: 128, Ways: 4, LineSize: 32, Mapping: nuca.MapStatic, Compression: nuca.CompNone},
}

// simSpaces are the sweep spaces each pass runs on their full grids.
// bus and memtech take 0.02 s or less and are left out.
var simSpaces = []string{"banks", "nuca", "memhier", "cache"}

// spaceLayer names the module whose code a space's point evaluation
// runs (memhier runs cache and partition; its points count as cache).
var spaceLayer = map[string]string{"banks": "partition", "nuca": "nuca", "memhier": "cache", "cache": "cache"}

func geometryName(c cache.Config) string { return fmt.Sprintf("%dx%dx%d", c.Sets, c.Ways, c.LineSize) }

func nucaName(c nuca.Config) string {
	return fmt.Sprintf("%dc%db-%s-%s", c.Cores, c.Banks, c.Mapping, c.Compression)
}

// simInputs are the seeded traces, in memory and LPMT-encoded.
type simInputs struct {
	single, multi       *trace.Trace
	singleLPMT, multiLP []byte
}

// singleCoreTrace is a seeded embedded-application shape: a streamed
// array, a hot table, a stack and a scattered cold heap.
func singleCoreTrace(seed int64, n int) *trace.Trace {
	return trace.Synthesize(trace.SynthConfig{Seed: seed, N: n, WriteFraction: 0.25, Regions: []trace.Region{
		{Base: 0x0001_0000, Size: 64 << 10, Weight: 5, Stride: 4},
		{Base: 0x0004_0000, Size: 16 << 10, Weight: 3},
		{Base: 0x007f_0000, Size: 4 << 10, Weight: 2, Stride: 4},
		{Base: 0x0010_0000, Size: 1 << 20, Weight: 1},
	}})
}

// multiCoreTrace is a seeded shared-pattern CMP trace.
func multiCoreTrace(seed int64, n int) (*trace.Trace, error) {
	return trace.SynthesizeMultiCore(trace.MultiCoreConfig{
		Seed: seed, Cores: simCores, AccessesPerCore: n / simCores, Pattern: trace.SharingShared,
	})
}

func encodeLPMT(t *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteBinary(&buf); err != nil {
		return nil, fmt.Errorf("encoding trace: %w", err)
	}
	return buf.Bytes(), nil
}

func makeSimInputs(seed int64, n int) (simInputs, error) {
	var in simInputs
	var err error
	in.single = singleCoreTrace(seed, n)
	if in.multi, err = multiCoreTrace(seed, n); err != nil {
		return in, err
	}
	if in.singleLPMT, err = encodeLPMT(in.single); err != nil {
		return in, err
	}
	in.multiLP, err = encodeLPMT(in.multi)
	return in, err
}

// simState is what one replay pass produced: statistics for the checks
// after the window, and each replay's wall time in seconds.
type simState struct {
	cache []cache.Stats
	nuca  []nuca.Stats
	times []float64
}

// appendColumns adds one pass's per-item times as a new sample of each
// item (cols[i] collects item i over the passes).
func appendColumns(cols [][]float64, row []float64) [][]float64 {
	if cols == nil {
		cols = make([][]float64, len(row))
	}
	for i, x := range row {
		cols[i] = append(cols[i], x)
	}
	return cols
}

func sumOfMedians(cols [][]float64) float64 {
	var total float64
	for _, xs := range cols {
		total += median(xs)
	}
	return total
}

// sweepRun is one sweep space's outcome in a pass.
type sweepRun struct {
	res    *sweep.Result
	tables string
	wall   time.Duration // sweep.Run alone, rendering excluded
}

// runSimulate replays the seeded traces and sweeps the four spaces,
// pass after pass. Its unit of work is the cold four-space sweep; its
// calls are the sweep's point evaluations.
func runSimulate(o options, rep *report) error {
	var in simInputs
	setup, err := repeat(simSetups, func() error {
		var err error
		in, err = makeSimInputs(o.seed, o.traceLen())
		return err
	})
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")

	// Each replay and each space's sweep is timed on every pass; the
	// figures sum each one's median over the passes, so a burst of host
	// noise in one pass moves one term's sample, not the total.
	var replays, sweeps [][]float64
	var states []simState
	var accesses uint64
	// A warm-up sweep fills the adapters' trace caches, so the first
	// measured pass's points cost what later ones do.
	if _, err := sweepPass(o, rep, ref, 0, nil); err != nil {
		return err
	}
	points := newPointTimer(rep)
	start := time.Now()
	for len(states) == 0 || time.Since(start) < o.budget() {
		st, n, err := replayPass(rep, in, 0)
		if err != nil {
			return err
		}
		states = append(states, st)
		accesses = n
		replays = appendColumns(replays, st.times)

		sw, err := sweepPass(o, rep, ref, 0, points.wrap)
		if err != nil {
			return err
		}
		sweeps = appendColumns(sweeps, sw.coldTimes)
	}
	// Replay speed is logged, not reported: it spread too much between
	// runs on a shared host to gate changes (see README.md); the traced
	// run reports it as a diagnostic.
	replayS, sweepS := sumOfMedians(replays), sumOfMedians(sweeps)
	rep.setWork(sweepS, points.all())
	fmt.Fprintf(rep.log, "perfbench: simulate: %d passes, replay %.3f s (%.3f Macc/s), sweep %.3f s per pass (sums of medians)\n",
		len(states), replayS, float64(accesses)/replayS/1e6, sweepS)
	checkReplays(rep, in, states)
	checkReference(rep, ref)
	return setPeakRSS(rep)
}

// pointTimer times sweep point evaluations through sweep.Config.WrapJob,
// each under a span of the layer its space evaluates (recorded on traced
// runs only).
type pointTimer struct {
	rep *report
	mu  sync.Mutex
	ms  map[string][]float64 // per space, in ms
}

func newPointTimer(rep *report) *pointTimer {
	return &pointTimer{rep: rep, ms: map[string][]float64{}}
}

func (p *pointTimer) wrap(space string, parent int64) jobWrap {
	return func(key string, run func(context.Context) (sweep.Metrics, error)) func(context.Context) (sweep.Metrics, error) {
		return func(ctx context.Context) (sweep.Metrics, error) {
			sp := p.rep.spans.begin(spaceLayer[space], "point/"+space, parent, "")
			m, err := run(ctx)
			d := sp.end()
			p.mu.Lock()
			p.ms[space] = append(p.ms[space], ms(d))
			p.mu.Unlock()
			return m, err
		}
	}
}

// all returns every point time in ms, spaces in simSpaces order.
func (p *pointTimer) all() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for _, space := range simSpaces {
		out = append(out, p.ms[space]...)
	}
	return out
}

// replayPass decodes both LPMT traces with trace.NewReader and streams
// them through every cache geometry and NUCA configuration. It returns
// the statistics and the number of accesses replayed.
func replayPass(rep *report, in simInputs, parent int64) (simState, uint64, error) {
	var st simState
	var n uint64
	for _, g := range simGeometries {
		sp := rep.spans.begin("cache", "ReplayCursor/"+geometryName(g), parent, "")
		r, err := trace.NewReader(bytes.NewReader(in.singleLPMT))
		if err != nil {
			return st, 0, err
		}
		c, err := cache.New(g, nil)
		if err != nil {
			return st, 0, err
		}
		s, err := c.ReplayCursor(r)
		st.times = append(st.times, sp.end().Seconds())
		rep.check(err == nil, "cache replay %s: %v", geometryName(g), err)
		st.cache = append(st.cache, s)
		n += uint64(len(in.single.Accesses))
	}
	for _, cfg := range simNUCA {
		sp := rep.spans.begin("nuca", "ReplayCursor/"+nucaName(cfg), parent, "")
		r, err := trace.NewReader(bytes.NewReader(in.multiLP))
		if err != nil {
			return st, 0, err
		}
		llc, err := nuca.New(cfg)
		if err != nil {
			return st, 0, err
		}
		s, err := llc.ReplayCursor(r)
		st.times = append(st.times, sp.end().Seconds())
		rep.check(err == nil, "nuca replay %s: %v", nucaName(cfg), err)
		st.nuca = append(st.nuca, s)
		n += uint64(len(in.multi.Accesses))
	}
	return st, n, nil
}

// sweepOutcome is a pass's sweep outcome: per-space results of the
// cold and resume runs, and each space's cold run time in seconds.
type sweepOutcome struct {
	cold, warm []sweepRun
	coldTimes  []float64
}

// jobWrap decorates one sweep point evaluation (sweep.Config.WrapJob).
type jobWrap = func(key string, run func(context.Context) (sweep.Metrics, error)) func(context.Context) (sweep.Metrics, error)

// sweepPass runs every space's full grid into an empty file-backed
// store, then reopens the store and resumes: the resume must evaluate
// nothing and render byte-identical tables, and both must match the
// reference table digests. wrap, when set, decorates point evaluations
// of a space under the given parent span.
func sweepPass(o options, rep *report, ref simReference, parent int64, wrap func(space string, parent int64) jobWrap) (sweepOutcome, error) {
	var out sweepOutcome
	dir, err := os.MkdirTemp(o.work, "sweep-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "points.jsonl")
	ctx := context.Background()
	runAll := func(label string) ([]sweepRun, error) {
		store, err := sweep.OpenStore(path)
		if err != nil {
			return nil, err
		}
		var runs []sweepRun
		for _, name := range simSpaces {
			ad, err := sweep.ByName(name)
			if err != nil {
				_ = store.Close()
				return nil, err
			}
			pts, err := ad.Space().Grid()
			if err != nil {
				_ = store.Close()
				return nil, err
			}
			sp := rep.spans.begin("sweep", label+"/"+name, parent, "")
			cfg := sweep.Config{Workers: 1, Store: store}
			if wrap != nil {
				cfg.WrapJob = wrap(name, sp.id())
			}
			res, err := sweep.Run(ctx, ad, pts, cfg)
			wall := sp.end()
			if err != nil {
				_ = store.Close()
				return nil, err
			}
			tables, err := renderSweep(ad, res)
			if err != nil {
				_ = store.Close()
				return nil, err
			}
			runs = append(runs, sweepRun{res: res, tables: tables, wall: wall})
		}
		return runs, store.Close()
	}
	if out.cold, err = runAll("Run"); err != nil {
		return out, err
	}
	for _, r := range out.cold {
		out.coldTimes = append(out.coldTimes, r.wall.Seconds())
	}
	if out.warm, err = runAll("Resume"); err != nil {
		return out, err
	}
	for i, name := range simSpaces {
		c, w := out.cold[i], out.warm[i]
		rep.check(c.res.Failed == 0 && c.res.Evaluated == c.res.Total,
			"sweep %s cold: %d/%d evaluated, %d failed", name, c.res.Evaluated, c.res.Total, c.res.Failed)
		rep.check(w.res.Evaluated == 0 && w.res.Cached == w.res.Total,
			"sweep %s resume: evaluated %d, cached %d of %d", name, w.res.Evaluated, w.res.Cached, w.res.Total)
		rep.check(w.tables == c.tables, "sweep %s resume tables differ from the cold run", name)
		rep.check(digest(c.tables) == ref.Sweeps[name], "sweep %s tables digest %s, reference %s", name, digest(c.tables), ref.Sweeps[name])
	}
	return out, nil
}

// renderSweep renders the results table (without its status column,
// which says "cached" on a resume) and the frontier table of a sweep.
func renderSweep(ad sweep.Adapter, res *sweep.Result) (string, error) {
	objs := sweep.MetricNames()
	axes := ad.Space().Axes
	ft, err := sweep.FrontierTable(axes, sweep.Frontier(res.Outcomes, objs), objs)
	if err != nil {
		return "", err
	}
	rt := sweep.ResultsTable(axes, res.Outcomes)
	if h := rt.Header(); h[len(h)-1] != "status" {
		return "", fmt.Errorf("sweep results table ends in %q, not status", h[len(h)-1])
	}
	if rt, err = rt.DropColumn(rt.NumCols() - 1); err != nil {
		return "", err
	}
	return rt.String() + ft.String(), nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// checkReplays compares every pass's streamed LPMT replay with the
// materialised Replay of the original in-memory traces.
func checkReplays(rep *report, in simInputs, states []simState) {
	for i, g := range simGeometries {
		c, err := cache.New(g, nil)
		if err != nil {
			rep.check(false, "cache %s: %v", geometryName(g), err)
			continue
		}
		want := c.Replay(in.single)
		for _, st := range states {
			rep.check(st.cache[i] == want, "cache %s: streamed %+v, materialised %+v", geometryName(g), st.cache[i], want)
		}
	}
	for i, cfg := range simNUCA {
		llc, err := nuca.New(cfg)
		if err != nil {
			rep.check(false, "nuca %s: %v", nucaName(cfg), err)
			continue
		}
		want := llc.Replay(in.multi)
		for _, st := range states {
			rep.check(reflect.DeepEqual(st.nuca[i], want), "nuca %s: streamed replay differs from materialised", nucaName(cfg))
		}
	}
}

// simReference pins simulated statistics on fixed-seed reference traces
// and the digests of the full-grid sweep tables. Regenerate it with
// `go test -run TestReference -update` after a deliberate model change.
type simReference struct {
	Cache  map[string]cache.Stats `json:"cache"`
	NUCA   map[string]nucaDigest  `json:"nuca"`
	Sweeps map[string]string      `json:"sweeps"`
}

// nucaDigest is the comparable core of nuca.Stats.
type nucaDigest struct {
	Accesses, Hits, Misses, WriteBacks, Latency uint64
	EnergyPJ                                    float64
}

func digestNUCA(s nuca.Stats) nucaDigest {
	return nucaDigest{s.Accesses, s.Hits, s.Misses, s.WriteBacks, s.Latency, float64(s.TotalEnergy())}
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (simReference, error) {
	var ref simReference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("decoding reference.json: %w", err)
	}
	return ref, nil
}

// computeReference simulates the fixed-seed reference traces (the
// sweep digests come from the sweep passes).
func computeReference() (simReference, error) {
	ref := simReference{Cache: map[string]cache.Stats{}, NUCA: map[string]nucaDigest{}, Sweeps: map[string]string{}}
	single := singleCoreTrace(refSeed, refAccesses)
	multi, err := multiCoreTrace(refSeed, refAccesses)
	if err != nil {
		return ref, err
	}
	for _, g := range simGeometries {
		c, err := cache.New(g, nil)
		if err != nil {
			return ref, err
		}
		ref.Cache[geometryName(g)] = c.Replay(single)
	}
	for _, cfg := range simNUCA {
		llc, err := nuca.New(cfg)
		if err != nil {
			return ref, err
		}
		ref.NUCA[nucaName(cfg)] = digestNUCA(llc.Replay(multi))
	}
	return ref, nil
}

// sweepDigests runs every simulate space's full grid without a store
// and digests its rendered tables.
func sweepDigests() (map[string]string, error) {
	out := map[string]string{}
	for _, name := range simSpaces {
		ad, err := sweep.ByName(name)
		if err != nil {
			return nil, err
		}
		pts, err := ad.Space().Grid()
		if err != nil {
			return nil, err
		}
		res, err := sweep.Run(context.Background(), ad, pts, sweep.Config{Workers: 1})
		if err != nil {
			return nil, err
		}
		tables, err := renderSweep(ad, res)
		if err != nil {
			return nil, err
		}
		out[name] = digest(tables)
	}
	return out, nil
}

// checkReference recomputes the reference simulations and compares
// them with the pinned values.
func checkReference(rep *report, want simReference) {
	got, err := computeReference()
	if err != nil {
		rep.check(false, "reference simulation: %v", err)
		return
	}
	for name, w := range want.Cache {
		rep.check(got.Cache[name] == w, "cache %s reference: got %+v, want %+v", name, got.Cache[name], w)
	}
	for name, w := range want.NUCA {
		rep.check(got.NUCA[name] == w, "nuca %s reference: got %+v, want %+v", name, got.NUCA[name], w)
	}
	rep.check(len(want.Cache) == len(simGeometries) && len(want.NUCA) == len(simNUCA) && len(want.Sweeps) == len(simSpaces),
		"reference.json covers %d/%d/%d entries", len(want.Cache), len(want.NUCA), len(want.Sweeps))
}

// traceSimulate is the simulate section of the traced run: a warm-up
// pass, an untraced reference pass, a traced pass, then probes of the
// trace codec and the two simulators on materialised traces. It returns
// the tracing overhead in percent.
func traceSimulate(o options, rep *report) (float64, error) {
	in, err := makeSimInputs(o.seed, o.traceLen())
	if err != nil {
		return 0, err
	}
	ref, err := loadReference()
	if err != nil {
		return 0, err
	}
	rec := rep.spans
	rep.spans = nil // the warm-up and reference passes record nothing
	untracedPass := func() (time.Duration, float64, error) {
		t0 := time.Now()
		st, n, err := replayPass(rep, in, 0)
		if err != nil {
			return 0, 0, err
		}
		if _, err := sweepPass(o, rep, ref, 0, nil); err != nil {
			return 0, 0, err
		}
		var replay float64
		for _, s := range st.times {
			replay += s
		}
		return time.Since(t0), float64(n) / replay / 1e6, nil
	}
	if _, _, err := untracedPass(); err != nil { // warm-up: fills adapter trace caches
		return 0, err
	}
	plain, rate, err := untracedPass()
	if err != nil {
		return 0, err
	}
	rep.set("replay_macc_per_s", rate, "Macc/s")

	rep.spans = rec
	root := rep.spans.begin("perfbench", "simulate.pass", 0, "")
	points := newPointTimer(rep)
	st, _, err := replayPass(rep, in, root.id())
	if err != nil {
		return 0, err
	}
	sw, err := sweepPass(o, rep, ref, root.id(), points.wrap)
	if err != nil {
		return 0, err
	}
	traced := root.end()
	checkReplays(rep, in, []simState{st})

	for space, ts := range points.ms {
		rep.set("sweep."+space+".point_ms", median(ts), "ms")
	}
	var evaluated, cached, total int
	t0 := time.Now()
	for i, name := range simSpaces {
		evaluated += sw.cold[i].res.Evaluated
		cached += sw.warm[i].res.Cached
		total += sw.warm[i].res.Total
		ad, err := sweep.ByName(name)
		if err != nil {
			return 0, err
		}
		objs := sweep.MetricNames()
		if _, err := sweep.FrontierTable(ad.Space().Axes, sweep.Frontier(sw.cold[i].res.Outcomes, objs), objs); err != nil {
			return 0, err
		}
	}
	rep.set("sweep.frontier_ms", ms(time.Since(t0)), "ms")
	rep.set("sweep.evaluated", float64(evaluated), "count")
	rep.set("sweep.cached", float64(cached), "count")
	rep.set("sweep.store_hit_frac", float64(cached)/float64(total), "frac")

	probeCodecAndSimulators(rep, in)
	checkReference(rep, ref)
	return 100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds(), nil
}

// probeCodecAndSimulators times the trace encoder and decoder alone,
// and each simulator replaying a materialised trace (no decode).
func probeCodecAndSimulators(rep *report, in simInputs) {
	n := float64(len(in.single.Accesses) + len(in.multi.Accesses))
	sp := rep.spans.begin("trace", "WriteBinary", 0, "")
	_, err1 := encodeLPMT(in.single)
	_, err2 := encodeLPMT(in.multi)
	rep.set("trace.encode_ns_per_acc", float64(sp.end().Nanoseconds())/n, "ns")
	rep.check(err1 == nil && err2 == nil, "encode: %v %v", err1, err2)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp = rep.spans.begin("trace", "Reader.Next", 0, "")
	var decoded int
	for _, b := range [][]byte{in.singleLPMT, in.multiLP} {
		r, err := trace.NewReader(bytes.NewReader(b))
		if err != nil {
			rep.check(false, "decode: %v", err)
			continue
		}
		for r.Next() {
			decoded++
		}
		rep.check(r.Err() == nil, "decode: %v", r.Err())
	}
	d := sp.end()
	runtime.ReadMemStats(&ms1)
	rep.check(float64(decoded) == n, "decoded %d accesses, want %.0f", decoded, n)
	rep.set("trace.decode_ns_per_acc", float64(d.Nanoseconds())/n, "ns")
	rep.set("trace.decode_allocs", float64(ms1.Mallocs-ms0.Mallocs), "count")

	c, err := cache.New(simGeometries[0], nil)
	if err == nil {
		sp = rep.spans.begin("cache", "ReplayCursor/slice", 0, "")
		st, _ := c.ReplayCursor(in.single.Cursor())
		d = sp.end()
		rep.set("cache.replay_ns_per_acc", float64(d.Nanoseconds())/float64(len(in.single.Accesses)), "ns")
		rep.set("cache.hit_rate", st.HitRate(), "frac")
	}
	rep.check(err == nil, "cache: %v", err)

	llc, err := nuca.New(simNUCA[0])
	if err == nil {
		sp = rep.spans.begin("nuca", "ReplayCursor/slice", 0, "")
		st, _ := llc.ReplayCursor(in.multi.Cursor())
		d = sp.end()
		rep.set("nuca.replay_ns_per_acc", float64(d.Nanoseconds())/float64(len(in.multi.Accesses)), "ns")
		rep.set("nuca.avg_latency", st.AvgLatency(), "cycles")
	}
	rep.check(err == nil, "nuca: %v", err)
}
