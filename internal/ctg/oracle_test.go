package ctg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refMakespan is the original list scheduler, kept as the oracle for
// Makespan: every pick rescans all tasks and their deps for the ready
// task with the highest priority, ties to the lowest index.
func refMakespan(g *Graph, mapping []int, procs int, stretch []float64, sc Scenario) float64 {
	n := len(g.Tasks)
	s := g.scheduler()
	if s.err != nil {
		// Only possible with a cycle, excluded by Validate.
		return 1e18
	}
	prio := s.prio

	// Ready-list scheduling over the reusable scratch state.
	s.mu.Lock()
	defer s.mu.Unlock()
	done, active, finish := s.done, s.active, s.finish
	if cap(s.procFree) < procs {
		s.procFree = make([]float64, procs)
	}
	procFree := s.procFree[:procs]
	for i := range procFree {
		procFree[i] = 0
	}
	remaining := 0
	for i := 0; i < n; i++ {
		finish[i] = 0
		if g.Active(i, sc) {
			active[i] = true
			done[i] = false
			remaining++
		} else {
			active[i] = false
			done[i] = true
		}
	}
	for remaining > 0 {
		// Pick the ready active task with the highest priority.
		best := -1
		for i := 0; i < n; i++ {
			if done[i] || !active[i] {
				continue
			}
			ready := true
			for _, d := range g.Deps[i] {
				if active[d] && !done[d] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			//lint:allow floatcompare exact equality only breaks argmax ties deterministically by index
			if best < 0 || prio[i] > prio[best] || (prio[i] == prio[best] && i < best) {
				best = i
			}
		}
		if best < 0 {
			// Only possible with a cycle, excluded by Validate.
			return 1e18
		}
		start := procFree[mapping[best]]
		for _, d := range g.Deps[best] {
			if active[d] && finish[d] > start {
				start = finish[d]
			}
		}
		s := 1.0
		if stretch != nil {
			s = stretch[best]
		}
		finish[best] = start + g.Tasks[best].WCET*s
		procFree[mapping[best]] = finish[best]
		done[best] = true
		remaining--
	}
	max := 0.0
	for i := 0; i < n; i++ {
		if active[i] && finish[i] > max {
			max = finish[i]
		}
	}
	return max
}

// tiedCTG builds a random DAG whose priorities tie on purpose: WCETs come
// from a tiny menu, and some are 1e-300, which vanishes when added to a
// path of 1e3 so a predecessor ties its successor. Deps point at random
// earlier *or later* indices of a random topological order, so a tied
// successor can sit before its predecessor in index order.
func tiedCTG(r *rand.Rand) *Graph {
	n := 1 + r.Intn(14)
	perm := r.Perm(n) // perm[k] is the task at topological position k
	wcets := []float64{1, 2, 1e3, 1e-300}
	g := &Graph{Tasks: make([]Task, n), Deps: make([][]int, n)}
	nConds := r.Intn(3)
	for v := 0; v < nConds; v++ {
		g.CondProb = append(g.CondProb, r.Float64())
	}
	for k, i := range perm {
		g.Tasks[i] = Task{WCET: wcets[r.Intn(len(wcets))], Power: 1, Guard: Guard{Var: NoCond}}
		if nConds > 0 && r.Intn(3) == 0 {
			g.Tasks[i].Guard = Guard{Var: r.Intn(nConds), Val: r.Intn(2) == 0}
		}
		for d := 0; k > 0 && d < r.Intn(4); d++ {
			// Duplicate deps are allowed and kept.
			g.Deps[i] = append(g.Deps[i], perm[r.Intn(k)])
		}
	}
	g.Deadline = 1e4
	return g
}

// checkMakespanOracle compares Makespan with refMakespan bit for bit on
// every scenario, for a nil stretch and a random one, under a random
// mapping.
func checkMakespanOracle(t *testing.T, r *rand.Rand, label string, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	procs := 1 + r.Intn(4)
	mapping := make([]int, len(g.Tasks))
	for i := range mapping {
		mapping[i] = r.Intn(procs)
	}
	stretch := make([]float64, len(g.Tasks))
	for i := range stretch {
		stretch[i] = 1 + 3*r.Float64()
	}
	for _, st := range [][]float64{nil, stretch} {
		for _, sc := range g.Scenarios() {
			got := g.Makespan(mapping, procs, st, sc)
			want := refMakespan(g, mapping, procs, st, sc)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Makespan = %v, oracle %v (mapping %v, stretch %v, outcomes %v)",
					label, got, want, mapping, st, sc.Outcomes)
			}
		}
	}
}

func TestMakespanMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		g := RandomCTG(int64(trial), 1+r.Intn(6), 1+r.Intn(5), r.Intn(4), 1+r.Float64())
		checkMakespanOracle(t, r, "random", g)
	}
	checkMakespanOracle(t, r, "cruise", CruiseController())
	for trial := 0; trial < 2000; trial++ {
		checkMakespanOracle(t, r, "tied", tiedCTG(r))
	}
}

// TestMakespanTieOrder pins the tie rule on a hand-built graph: tasks 0,
// 1 and 2 tie on priority (task 2's 1e-300 WCET vanishes beside its
// successor's 1e3), so task 1 precedes its own predecessor 2 in the pick
// order and must be passed over until 2 has run.
func TestMakespanTieOrder(t *testing.T) {
	g := &Graph{
		Tasks: []Task{
			{WCET: 1e3, Power: 1, Guard: Guard{Var: NoCond}},
			{WCET: 1e3, Power: 1, Guard: Guard{Var: NoCond}},
			{WCET: 1e-300, Power: 1, Guard: Guard{Var: NoCond}},
			{WCET: 5, Power: 1, Guard: Guard{Var: NoCond}},
		},
		Deps:     [][]int{{}, {2}, {}, {}},
		Deadline: 1e4,
	}
	if p := g.scheduler().prio; p[0] != p[1] || p[1] != p[2] {
		t.Fatalf("priorities %v do not tie", p)
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 20; k++ {
		checkMakespanOracle(t, r, "hand-built", g)
	}
}

// TestMapGAMatchesUnmemoised: the fitness memo changes nothing — the
// memoised search returns exactly the result of one that re-runs the
// DVS pass for every evaluation.
func TestMapGAMatchesUnmemoised(t *testing.T) {
	graphs := []*Graph{CruiseController()}
	for seed := int64(0); seed < 4; seed++ {
		graphs = append(graphs, RandomCTG(seed, 3, 4, 2, 2.0))
	}
	for gi, g := range graphs {
		for _, procs := range []int{1, 2, 3} {
			cfg := DefaultGAConfig()
			cfg.Generations = 8
			cfg.Seed = int64(gi + procs)
			got, gotErr := MapGA(g, procs, cfg)
			want, wantErr := runGA(g, procs, cfg, func(m []int) (float64, []float64) {
				return gaFitness(g, procs, m)
			})
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("graph %d procs %d: error %v, unmemoised %v", gi, procs, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
				!slices.Equal(got.Mapping, want.Mapping) || !slices.Equal(got.Stretch, want.Stretch) {
				t.Fatalf("graph %d procs %d: memoised %+v, unmemoised %+v", gi, procs, got, want)
			}
		}
	}
}

// BenchmarkMakespan times one schedule of the E11 cruise controller.
func BenchmarkMakespan(b *testing.B) {
	g := CruiseController()
	mapping := RoundRobin(len(g.Tasks), 2)
	sc := g.Scenarios()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Makespan(mapping, 2, nil, sc)
	}
}
