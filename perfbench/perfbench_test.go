package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lpmem"
)

var update = flag.Bool("update", false, "rewrite reference.json from the current tree")

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tinyExperiments are fast registry entries for small-size runs.
func tinyExperiments(t *testing.T) []lpmem.Experiment {
	t.Helper()
	var out []lpmem.Experiment
	for _, id := range []string{"E4", "E12", "E17", "E22"} {
		e, err := lpmem.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// runTiny runs one workload at test size and decodes its result line.
func runTiny(t *testing.T, o options) resultLine {
	t.Helper()
	if o.golden == "" {
		o.golden = filepath.Join("..", "testdata", "golden")
	}
	if o.exps == nil {
		o.exps = tinyExperiments(t)
	}
	o.work = t.TempDir()
	o.accesses = 1 << 12
	var stdout, stderr bytes.Buffer
	if code := execute(o, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%v: exit %d\n%s", o.workload, o.traced, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", o.workload, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: attempted %d", o.workload, res.Attempted)
	}
	if res.Failed > 0 {
		t.Logf("%s trace=%v stderr:\n%s", o.workload, o.traced, stderr.String())
	}
	return res
}

// TestMetricsMatchBenchmarkJSON runs every workload untraced and traced
// at test size: each run must print exactly the metrics BENCHMARK.json
// declares for it (end_to_end untraced, per_layer traced), in the
// declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		declared[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[1][m.Name] = m.Unit
	}
	// The test registry is a subset: exp.<ID>.ms of the others cannot
	// be printed.
	tiny := map[string]bool{}
	for _, e := range tinyExperiments(t) {
		tiny[e.ID] = true
	}
	for _, w := range spec.Workloads {
		for traced := 0; traced <= 1; traced++ {
			res := runTiny(t, options{workload: w.Name, seed: 7, seconds: 1.5, traced: traced == 1})
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct %v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				unit, ok := declared[traced][name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d prints %s, not declared", w.Name, traced, name)
				case unit != m.Unit:
					t.Errorf("%s trace=%d prints %s in %s, declared %s", w.Name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d prints %s = %v", w.Name, traced, name, m.Value)
				}
			}
			for name := range declared[traced] {
				id, isExp := strings.CutPrefix(name, "exp.")
				if isExp && strings.HasSuffix(id, ".ms") && !tiny[strings.TrimSuffix(id, ".ms")] {
					continue
				}
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%d does not print declared metric %s", w.Name, traced, name)
				}
			}
		}
	}
}

// TestCorruptGoldenFails edits one golden row in a copy of the goldens:
// the registry run must count failed operations and report incorrect.
func TestCorruptGoldenFails(t *testing.T) {
	dir := t.TempDir()
	exps := tinyExperiments(t)
	for _, e := range exps {
		b, err := os.ReadFile(filepath.Join("..", "testdata", "golden", e.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if e.ID == "E12" {
			var g map[string]interface{}
			if err := json.Unmarshal(b, &g); err != nil {
				t.Fatal(err)
			}
			rows := g["rows"].([]interface{})
			rows[0].([]interface{})[0] = "corrupted"
			if b, err = json.Marshal(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, e.ID+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res := runTiny(t, options{workload: "registry", seconds: 0.01, golden: dir, exps: exps})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted golden: correct %v, failed %d of %d; want a failure", res.Correct, res.Failed, res.Attempted)
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac != 1/float64(len(exps)) {
		t.Errorf("fail fraction %v, want %v (one experiment of %d)", frac, 1/float64(len(exps)), len(exps))
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, window = 2000.0, 5 * time.Second
	due := poissonSchedule(rand.New(rand.NewSource(1)), rate, window)
	want := rate * window.Seconds()
	if n := float64(len(due)); math.Abs(n-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals, want about %v", n, want)
	}
	for i, d := range due {
		if d < 0 || d >= window || (i > 0 && d < due[i-1]) {
			t.Fatalf("arrival %d at %v out of order or window", i, d)
		}
	}
	mean := due[len(due)-1].Seconds() / float64(len(due))
	if math.Abs(mean-1/rate)/(1/rate) > 0.05 {
		t.Errorf("mean gap %v s, want %v", mean, 1/rate)
	}
	again := poissonSchedule(rand.New(rand.NewSource(1)), rate, window)
	if len(again) != len(due) || again[len(again)-1] != due[len(due)-1] {
		t.Error("same seed gave a different schedule")
	}
	if got := evenSchedule(3, time.Second); len(got) != 3 || got[0] != 250*time.Millisecond || got[2] != 750*time.Millisecond {
		t.Errorf("evenSchedule = %v", got)
	}
}

func TestTimingMath(t *testing.T) {
	ms := time.Millisecond
	// Due at 10, taken by a free connection at 2, sent at 11, done at 15.
	idle := timing{due: 10 * ms, taken: 2 * ms, sent: 11 * ms, done: 15 * ms}
	if idle.latency() != 5*ms || idle.lag() != ms {
		t.Errorf("idle: latency %v lag %v, want 5ms 1ms", idle.latency(), idle.lag())
	}
	// Due at 10 while both connections were busy; taken at 30, sent at
	// 30: the 20 ms queueing is latency, not generator lag.
	queued := timing{due: 10 * ms, taken: 30 * ms, sent: 30 * ms, done: 34 * ms}
	if queued.latency() != 24*ms || queued.lag() != 0 {
		t.Errorf("queued: latency %v lag %v, want 24ms 0", queued.latency(), queued.lag())
	}
}

// TestDispatchChargesQueueing sends three requests due at once over one
// connection whose responses take 20 ms: latency from the due time must
// include the wait behind earlier requests.
func TestDispatchChargesQueueing(t *testing.T) {
	const service = 20 * time.Millisecond
	out := dispatch(time.Now(), []time.Duration{0, 0, 0}, 1, func(_, _ int) { time.Sleep(service) })
	for i, tm := range out {
		want := time.Duration(i+1) * service
		if tm.latency() < want || tm.latency() > want+15*time.Millisecond {
			t.Errorf("request %d latency %v, want about %v", i, tm.latency(), want)
		}
		if tm.lag() > 5*time.Millisecond {
			t.Errorf("request %d lag %v: queueing counted as generator lag", i, tm.lag())
		}
	}
	// A request due in the future is held until then.
	start := time.Now()
	out = dispatch(start, []time.Duration{30 * time.Millisecond}, 2, func(_, _ int) {})
	if out[0].sent < 30*time.Millisecond {
		t.Errorf("sent at %v, before its due time", out[0].sent)
	}
}

// TestColdSeedsNeverRepeatAPoint draws one server's whole sweep lane:
// every sweep must sample sweepPoints points no earlier sweep asked for,
// so the server evaluates every one of them cold.
func TestColdSeedsNeverRepeatAPoint(t *testing.T) {
	g, err := newGenerator(nil, "", nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < laneSweeps; i++ {
		pts, err := g.space.Sample(sweepPoints, g.coldSeed())
		if err != nil || len(pts) != sweepPoints {
			t.Fatalf("sweep %d: %d points, %v", i, len(pts), err)
		}
		for _, p := range pts {
			if seen[p.Canonical()] {
				t.Fatalf("sweep %d repeats point %s", i, p.Canonical())
			}
			seen[p.Canonical()] = true
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "b", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Layer: "b", Start: 30 * ms, End: 60 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "c", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	got := selfTimes(spans)
	if got["a"] != 40*ms || got["b"] != 60*ms || got["c"] != 30*ms {
		t.Errorf("self times %v, want a=40ms b=60ms c=30ms", got)
	}
}

// TestReference recomputes the pinned simulator statistics and sweep
// table digests; -update rewrites reference.json.
func TestReference(t *testing.T) {
	got, err := computeReference()
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweeps, err = sweepDigests(); err != nil {
		t.Fatal(err)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("reference drift:\n got %s\nwant %s", gb, wb)
	}
}
