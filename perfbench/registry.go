package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lpmem"
	"lpmem/internal/cluster"
	"lpmem/internal/core"
	"lpmem/internal/noc"
	"lpmem/internal/partition"
	"lpmem/internal/regress"
	"lpmem/internal/runner"
	"lpmem/internal/testcomp"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// registrySetups is how many times the registry set-up is repeated for
// the setup_s median; it takes about a millisecond, so many repeats cost
// little and steady the median.
const registrySetups = 51

// registrySetup loads the goldens and builds the one-worker, cache-less
// engine the registry passes run on.
func registrySetup(o options, rep *report) (map[string]regress.Snapshot, *lpmem.Engine) {
	return loadGoldens(o.golden, o.experiments(), rep), lpmem.NewEngine(runner.Options{Workers: 1, NoCache: true})
}

// runRegistry is the researcher's `lpmem run all`: full passes over the
// registry through lpmem.RunBatch on a one-worker, cache-less engine,
// each checked against the goldens. The workload has no seed: the
// goldens fix its inputs. Its unit of work is one pass; its calls are
// the single experiments.
func runRegistry(o options, rep *report) error {
	exps := o.experiments()
	var goldens map[string]regress.Snapshot
	var eng *lpmem.Engine
	setup, err := repeat(registrySetups, func() error {
		goldens, eng = registrySetup(o, rep)
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")

	ctx := context.Background()
	var passes []float64
	perExp := make([][]float64, len(exps))
	start := time.Now()
	// Stop before a pass that would overrun the window, but always
	// measure at least one.
	for len(passes) == 0 || time.Since(start).Seconds()+median(passes) <= o.seconds {
		t0 := time.Now()
		reports := lpmem.RunBatch(ctx, eng, exps)
		passes = append(passes, time.Since(t0).Seconds())
		checkReports(rep, reports, goldens)
		for i, r := range reports {
			perExp[i] = append(perExp[i], r.Outcome.Duration.Seconds())
		}
	}
	// A pass is ~99.99% experiment time (the rest is runner overhead, a
	// per-layer metric). Summing each experiment's median over the
	// passes keeps a burst of host noise in one pass from moving the
	// figure, where a median of whole passes would need more passes.
	// The call percentiles are taken over the same per-experiment
	// medians: pooling the raw samples of 26 experiments of very
	// different lengths puts the median between one experiment's slowest
	// sample and the next one's fastest, which a single noisy pass moves.
	var calls []float64
	for _, xs := range perExp {
		calls = append(calls, median(xs)*1000)
	}
	total := sumOfMedians(perExp)
	rep.setWork(total, calls)
	fmt.Fprintf(rep.log, "perfbench: registry: %d passes %v, sum of per-experiment medians %.3f s\n", len(passes), passes, total)
	return setPeakRSS(rep)
}

// loadGoldens reads every experiment's golden snapshot. An unreadable
// golden is logged and left out, so every run of that experiment then
// fails its check instead of aborting the benchmark.
func loadGoldens(dir string, exps []lpmem.Experiment, rep *report) map[string]regress.Snapshot {
	out := make(map[string]regress.Snapshot, len(exps))
	for _, e := range exps {
		s, err := regress.ReadGolden(dir, e.ID)
		if err != nil {
			fmt.Fprintf(rep.log, "perfbench: %v\n", err)
			continue
		}
		out[e.ID] = s
	}
	return out
}

// checkReports counts one check per experiment: it ran, and its table
// and summary equal the golden exactly.
func checkReports(rep *report, reports []lpmem.Report, goldens map[string]regress.Snapshot) {
	for _, r := range reports {
		id := r.Experiment.ID
		if r.Outcome.Err != nil {
			rep.check(false, "%s: %v", id, r.Outcome.Err)
			continue
		}
		g, ok := goldens[id]
		if !ok {
			rep.check(false, "%s: no golden", id)
			continue
		}
		drift := regress.CompareSnapshot(g, regress.SnapshotOf(r))
		rep.check(len(drift) == 0, "%s: %d drifts from golden, first: %v", id, len(drift), drift)
	}
}

func setPeakRSS(rep *report) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "MB")
	return nil
}

// traceRegistry is the registry section of the traced run: untraced,
// traced and untraced passes again (the untraced mean is the overhead
// reference), a parallel pass for the runner's speed-up, then probes
// that time the optimiser and interpreter layers on the hot
// experiments' own inputs. It returns the tracing overhead in percent.
func traceRegistry(o options, rep *report) (float64, error) {
	ctx := context.Background()
	exps := o.experiments()
	goldens, eng := registrySetup(o, rep)
	plainPass := func() time.Duration {
		t0 := time.Now()
		reports := lpmem.RunBatch(ctx, eng, exps)
		wall := time.Since(t0)
		checkReports(rep, reports, goldens)
		var busy time.Duration
		for _, r := range reports {
			busy += r.Outcome.Duration
		}
		rep.set("runner.overhead_us", us(wall-busy), "us")
		return wall
	}
	plain := plainPass()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced, _ := tracedPass(ctx, rep, eng, exps, goldens, "Engine.Run", true)
	runtime.ReadMemStats(&ms1)
	rep.set("exp.allocs", float64(ms1.Mallocs-ms0.Mallocs), "count")
	plain = (plain + plainPass()) / 2
	overhead := 100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds()

	// Parallel pass on a pool as wide as the machine.
	workers := runtime.GOMAXPROCS(0)
	par := lpmem.NewEngine(runner.Options{Workers: workers, NoCache: true})
	wall, busy := tracedPass(ctx, rep, par, exps, goldens, "Engine.Run.parallel", false)
	rep.set("runner.par_speedup", plain.Seconds()/wall.Seconds(), "x")
	rep.set("runner.busy_frac", busy.Seconds()/(wall.Seconds()*float64(workers)), "frac")

	return overhead, probeOptimisers(rep)
}

// tracedPass runs the jobs RunBatch builds through eng, each wrapped in
// a span under one root span, checks the outputs and returns the wall
// time and the summed job time. perExp reports each job's time as
// exp.<ID>.ms.
func tracedPass(ctx context.Context, rep *report, eng *lpmem.Engine, exps []lpmem.Experiment, goldens map[string]regress.Snapshot, name string, perExp bool) (wall, busy time.Duration) {
	root := rep.spans.begin("runner", name, 0, "")
	jobs := lpmem.Jobs(exps)
	for i := range jobs {
		inner, id := jobs[i].Run, jobs[i].ID
		jobs[i].Run = func(ctx context.Context) (*lpmem.Result, error) {
			sp := rep.spans.begin("lpmem", "exp."+id, root.id(), "")
			defer func() {
				if d := sp.end(); perExp {
					rep.set("exp."+id+".ms", ms(d), "ms")
				}
			}()
			return inner(ctx)
		}
	}
	outs := eng.Run(ctx, jobs)
	wall = root.end()
	reports := make([]lpmem.Report, len(exps))
	for i := range exps {
		reports[i] = lpmem.Report{Experiment: exps[i], Outcome: outs[i]}
		busy += outs[i].Duration
	}
	checkReports(rep, reports, goldens)
	return wall, busy
}

// probeOptimisers times the layers under the three slowest experiments
// (E1 clustering + partitioning over interpreted kernels, E10 NoC
// branch and bound, E18 test compression) on those experiments' inputs.
func probeOptimisers(rep *report) error {
	// Kernel interpretation (workloads over isa): every kernel at E1's
	// seed.
	var apps []*trace.Trace
	var cycles []uint64
	var interp time.Duration
	var retired uint64
	byName := map[string]*workloads.Result{}
	for _, k := range workloads.All() {
		inst := k.Build(1)
		sp := rep.spans.begin("workloads", "Run/"+k.Name, 0, "")
		res, err := workloads.Run(inst)
		interp += sp.end()
		rep.check(err == nil, "workloads %s: %v", k.Name, err)
		if err != nil {
			continue
		}
		retired += res.Retired
		byName[k.Name] = res
		apps = append(apps, res.Trace)
		cycles = append(cycles, res.Cycles)
	}
	rep.set("workloads.run_ms", ms(interp), "ms")
	if retired > 0 {
		rep.set("workloads.ns_per_retired", float64(interp.Nanoseconds())/float64(retired), "ns")
	}
	// E1's composite applications concatenate kernel traces.
	for _, parts := range e1Composites {
		merged := trace.New(1 << 16)
		var cyc uint64
		for _, p := range parts {
			res, ok := byName[p]
			if !ok {
				return fmt.Errorf("composite part %q missing", p)
			}
			merged.Accesses = append(merged.Accesses, res.Trace.Accesses...)
			cyc += res.Cycles
		}
		apps = append(apps, merged)
		cycles = append(cycles, cyc)
	}

	// Clustering and partitioning with E1's options.
	opt := core.DefaultOptions()
	ccfg := opt.Cluster
	ccfg.BlockSize = opt.BlockSize
	var clusterT, optimalT time.Duration
	for i, t := range apps {
		data := t.Data()
		sp := rep.spans.begin("cluster", "Cluster", 0, "")
		_, err := cluster.Cluster(data, ccfg)
		clusterT += sp.end()
		rep.check(err == nil, "cluster app %d: %v", i, err)

		base, err := cluster.IdentityBaseline(data, opt.BlockSize)
		if err != nil {
			return err
		}
		spec, _, err := partition.SpecFromTrace(base.Remap(data), opt.BlockSize, cycles[i])
		if err != nil {
			return err
		}
		sp = rep.spans.begin("partition", "Optimal", 0, "")
		_, _, err = partition.Optimal(spec, opt.MaxBanks, opt.Model)
		optimalT += sp.end()
		rep.check(err == nil, "partition app %d: %v", i, err)
	}
	rep.set("cluster.cluster_ms", ms(clusterT), "ms")
	rep.set("partition.optimal_ms", ms(optimalT), "ms")

	// E10: branch and bound on the MMS graph across its bandwidth
	// regimes, with its 2M-node cap.
	g := noc.MMSGraph()
	var bnb time.Duration
	var visited uint64
	for _, bw := range []float64{1500, 1000, 700} {
		m := noc.DefaultMesh()
		m.LinkBW = bw
		sp := rep.spans.begin("noc", fmt.Sprintf("MapBnB/bw%.0f", bw), 0, "")
		res, err := noc.MapBnB(m, g, 2_000_000)
		bnb += sp.end()
		if err == nil {
			visited += res.Visited
		}
	}
	rep.set("noc.mapbnb_ms", ms(bnb), "ms")
	rep.set("noc.visited", float64(visited), "count")
	if visited > 0 {
		rep.set("noc.ns_per_node", float64(bnb.Nanoseconds())/float64(visited), "ns")
	}

	// E18: don't-care fill + LZW, and vector stitching.
	var lzw, stitch time.Duration
	for i, c := range []struct {
		n, length int
		care      float64
	}{{100, 512, 0.02}, {100, 512, 0.05}, {150, 1024, 0.10}} {
		ps := testcomp.Generate(int64(i+1), c.n, c.length, c.care)
		sp := rep.spans.begin("testcomp", "LZW", 0, "")
		for _, pol := range []testcomp.FillPolicy{testcomp.FillZero, testcomp.FillRepeat, testcomp.FillRandom} {
			testcomp.LZWEncode(testcomp.Fill(ps, pol, 7))
		}
		lzw += sp.end()
		sp = rep.spans.begin("testcomp", "Stitch", 0, "")
		testcomp.Stitch(ps, testcomp.Responses(ps, 7))
		stitch += sp.end()
	}
	rep.set("testcomp.lzw_ms", ms(lzw), "ms")
	rep.set("testcomp.stitch_ms", ms(stitch), "ms")
	return nil
}

// e1Composites are E1's multi-phase applications (kernel names merged
// in order), as the registry builds them.
var e1Composites = [][]string{
	{"fir", "dct", "adpcm"},
	{"crc32", "strsearch", "histogram", "hashlookup"},
	{"listchase", "spmv", "fibcall"},
	{"fibcall", "qsort", "listchase", "histogram"},
	{"fft", "autocorr", "huffman", "bitcount"},
}
