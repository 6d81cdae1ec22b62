// Package ctg implements scheduling, dynamic voltage scaling (DVS) and
// genetic-algorithm mapping for conditional task graphs, reproducing
// DATE'03 2B.2 (Wu, Al-Hashimi, Eles: "Scheduling and Mapping of
// Conditional Task Graphs for the Synthesis of Low Power Embedded
// Systems").
//
// A conditional task graph (CTG) extends a task DAG with condition
// variables: a task guarded by a condition only executes in the runs where
// the condition holds, so different runs ("scenarios") execute different
// subgraphs. The available slack under a deadline therefore differs per
// scenario; the DVS pass must pick voltage (stretch) factors that meet the
// deadline in the *worst* scenario while harvesting the slack that exists
// in all of them. Combining the DVS pass with a genetic algorithm over the
// task-to-processor mapping finds mappings whose schedules expose more
// exploitable slack, which is where the paper's larger savings come from.
//
// Energy model: lowering the supply voltage stretches a task by a factor
// s >= 1 and scales its energy by 1/s² (E ∝ V², V ∝ f). A task's nominal
// energy is Power × WCET.
//
//lint:hotpath
package ctg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// NoCond marks an unconditional task.
const NoCond = -1

// Guard gates a task on one condition variable's outcome.
type Guard struct {
	// Var is the condition-variable index, or NoCond.
	Var int
	// Val is the outcome under which the task executes.
	Val bool
}

// Task is one node of the CTG.
type Task struct {
	Name string
	// WCET is the worst-case execution time at nominal voltage.
	WCET float64
	// Power is the nominal power draw while executing.
	Power float64
	// Guard gates execution.
	Guard Guard
}

// Graph is a conditional task graph. The structural fields (Tasks, Deps,
// CondProb) must not be mutated once scheduling starts: the scheduler
// memoizes the topological order, successor lists, task priorities and
// scenario set on first use, because the DVS search and the GA evaluate
// tens of thousands of schedules against the same structure.
type Graph struct {
	Tasks []Task
	// Deps[i] lists the predecessors of task i.
	Deps [][]int
	// CondProb[v] is the probability that condition v is true.
	CondProb []float64
	// Deadline is the hard completion bound for every scenario.
	Deadline float64

	schedOnce sync.Once
	sched     *sched
}

// sched holds the mapping-independent scheduling invariants of a graph
// plus reusable scratch state for the list scheduler. The scratch is
// guarded by mu so concurrent Makespan calls stay race-free (they
// serialize; all callers in this repository are sequential anyway).
type sched struct {
	order     []int
	succ      [][]int
	prio      []float64
	byPrio    []int
	scenarios []Scenario
	err       error

	mu       sync.Mutex
	done     []bool
	active   []bool
	finish   []float64
	procFree []float64
}

// scheduler builds (once) and returns the graph's cached invariants.
func (g *Graph) scheduler() *sched {
	//lint:allow hotalloc the closure runs once per graph and does not escape
	g.schedOnce.Do(func() {
		s := &sched{}
		s.order, s.err = g.topo()
		if s.err != nil {
			g.sched = s
			return
		}
		n := len(g.Tasks)
		s.succ = make([][]int, n)
		for i, deps := range g.Deps {
			for _, d := range deps {
				s.succ[d] = append(s.succ[d], i)
			}
		}
		// Longest path to exit at nominal WCET (list-scheduling priority).
		s.prio = make([]float64, n)
		for k := n - 1; k >= 0; k-- {
			v := s.order[k]
			s.prio[v] = g.Tasks[v].WCET
			for _, sc := range s.succ[v] {
				if s.prio[sc]+g.Tasks[v].WCET > s.prio[v] {
					s.prio[v] = s.prio[sc] + g.Tasks[v].WCET
				}
			}
		}
		// Makespan's pick order: priority descending, ties to the
		// lower index, exactly the argmax its readiness scan needs.
		s.byPrio = make([]int, n)
		for i := range s.byPrio {
			s.byPrio[i] = i
		}
		sort.SliceStable(s.byPrio, func(a, b int) bool {
			return s.prio[s.byPrio[a]] > s.prio[s.byPrio[b]]
		})
		s.scenarios = g.Scenarios()
		s.done = make([]bool, n)
		s.active = make([]bool, n)
		s.finish = make([]float64, n)
		g.sched = s
	})
	return g.sched
}

// Validate checks structural sanity (indices, probabilities, acyclicity)
// and that every WCET, power, probability and the deadline is finite.
func (g *Graph) Validate() error {
	if len(g.Deps) != len(g.Tasks) {
		return fmt.Errorf("ctg: deps size %d != tasks %d", len(g.Deps), len(g.Tasks))
	}
	for i, deps := range g.Deps {
		for _, d := range deps {
			if d < 0 || d >= len(g.Tasks) {
				return fmt.Errorf("ctg: task %d has bad dep %d", i, d)
			}
		}
	}
	for i, t := range g.Tasks {
		if !finite(t.WCET) || !finite(t.Power) || t.WCET <= 0 || t.Power <= 0 {
			return fmt.Errorf("ctg: task %d needs finite positive WCET and Power, got %v and %v", i, t.WCET, t.Power)
		}
		if t.Guard.Var != NoCond && (t.Guard.Var < 0 || t.Guard.Var >= len(g.CondProb)) {
			return fmt.Errorf("ctg: task %d guard on unknown condition %d", i, t.Guard.Var)
		}
	}
	for _, p := range g.CondProb {
		if !finite(p) || p < 0 || p > 1 {
			return fmt.Errorf("ctg: condition probability %f out of range", p)
		}
	}
	if !finite(g.Deadline) {
		return fmt.Errorf("ctg: deadline %v is not finite", g.Deadline)
	}
	if _, err := g.topo(); err != nil {
		return err
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite; NaN compares
// false against every bound, so range checks alone let it through.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// topo returns a topological order or an error on cycles.
func (g *Graph) topo() ([]int, error) {
	n := len(g.Tasks)
	// One backing for the in-degrees, the ready queue and the order: each
	// task enters the queue once, so neither outgrows n.
	//lint:allow hotalloc per-call O(tasks) setup; topo runs once per Validate and once per graph
	buf := make([]int, 3*n)
	indeg, queue, order := buf[:n], buf[n:n:2*n], buf[2*n:2*n:3*n]
	//lint:allow hotalloc per-call O(tasks) setup; topo runs once per Validate and once per graph
	succ := make([][]int, n)
	for i, deps := range g.Deps {
		for _, d := range deps {
			indeg[i]++
			succ[d] = append(succ[d], i)
		}
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		// Smallest index first for determinism.
		sort.Ints(queue)
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("ctg: graph has a cycle")
	}
	return order, nil
}

// Scenario is one assignment of condition outcomes.
type Scenario struct {
	Outcomes []bool
	Prob     float64
}

// Scenarios enumerates all condition combinations with probabilities.
func (g *Graph) Scenarios() []Scenario {
	n := len(g.CondProb)
	//lint:allow hotalloc the result: one slice of scenarios per call
	out := make([]Scenario, 0, 1<<n)
	//lint:allow hotalloc the result: every scenario's outcomes share one backing
	outcomes := make([]bool, n<<n)
	for mask := 0; mask < 1<<n; mask++ {
		s := Scenario{Outcomes: outcomes[mask*n : (mask+1)*n : (mask+1)*n], Prob: 1}
		for v := 0; v < n; v++ {
			if mask>>v&1 == 1 {
				s.Outcomes[v] = true
				s.Prob *= g.CondProb[v]
			} else {
				s.Prob *= 1 - g.CondProb[v]
			}
		}
		out = append(out, s)
	}
	return out
}

// Active reports whether task i executes in the scenario.
func (g *Graph) Active(i int, sc Scenario) bool {
	gd := g.Tasks[i].Guard
	return gd.Var == NoCond || sc.Outcomes[gd.Var] == gd.Val
}

// Makespan list-schedules the active tasks of a scenario onto processors
// (mapping[i] = processor) with the given per-task stretch factors, and
// returns the completion time. Priorities are longest-path lengths at
// nominal WCET; the policy is deterministic: each step starts the ready
// active task with the highest priority, ties to the lowest index.
//
// The scheduler walks the precomputed (priority desc, index asc) order
// and picks the first ready task in it, which is that argmax for every
// graph without NaN WCETs. The walk resumes at the first unscheduled
// task, and that task is ready unless a predecessor ties it on priority
// (a WCET absorbed in rounding), so a schedule costs O(tasks + deps)
// instead of a full rescan per pick.
func (g *Graph) Makespan(mapping []int, procs int, stretch []float64, sc Scenario) float64 {
	n := len(g.Tasks)
	s := g.scheduler()
	if s.err != nil {
		// Only possible with a cycle, excluded by Validate.
		return 1e18
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	done, active, finish := s.done, s.active, s.finish
	if cap(s.procFree) < procs {
		//lint:allow hotalloc reused scratch, regrown only for a processor count above every earlier call's
		s.procFree = make([]float64, procs)
	}
	procFree := s.procFree[:procs]
	for i := range procFree {
		procFree[i] = 0
	}
	for i := 0; i < n; i++ {
		finish[i] = 0
		// Inactive tasks count as done, so readiness only looks at done.
		active[i] = g.Active(i, sc)
		done[i] = !active[i]
	}
	head := 0
	for {
		for head < n && done[s.byPrio[head]] {
			head++
		}
		if head == n {
			break
		}
		best := -1
		for _, i := range s.byPrio[head:] {
			if done[i] {
				continue
			}
			ready := true
			for _, d := range g.Deps[i] {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				best = i
				break
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
	}
	max := 0.0
	for i := 0; i < n; i++ {
		if active[i] && finish[i] > max {
			max = finish[i]
		}
	}
	return max
}

// Feasible reports whether all scenarios meet the deadline.
func (g *Graph) Feasible(mapping []int, procs int, stretch []float64) bool {
	for _, sc := range g.cachedScenarios() {
		if g.Makespan(mapping, procs, stretch, sc) > g.Deadline+1e-9 {
			return false
		}
	}
	return true
}

// cachedScenarios returns the memoized scenario set when the graph is
// schedulable, falling back to a fresh enumeration otherwise. Callers
// must treat the result as read-only.
func (g *Graph) cachedScenarios() []Scenario {
	if s := g.scheduler(); s.err == nil {
		return s.scenarios
	}
	return g.Scenarios()
}

// Energy returns the expected energy over scenarios under the stretches:
// a task running at stretch s consumes Power*WCET/s².
func (g *Graph) Energy(stretch []float64) float64 {
	total := 0.0
	for _, sc := range g.cachedScenarios() {
		e := 0.0
		for i, t := range g.Tasks {
			if !g.Active(i, sc) {
				continue
			}
			s := 1.0
			if stretch != nil {
				s = stretch[i]
			}
			e += t.Power * t.WCET / (s * s)
		}
		total += sc.Prob * e
	}
	return total
}

// DVS computes per-task stretch factors that keep every scenario within
// the deadline: first a global stretch equal to the minimum scenario
// slack, then greedy per-task refinement that keeps stretching the task
// with the highest remaining energy while feasibility holds.
func (g *Graph) DVS(mapping []int, procs int) ([]float64, error) {
	return g.dvsBounded(mapping, procs, 64)
}

// dvsBounded is DVS with a cap on refinement rounds; the GA uses a small
// cap as a fast fitness proxy.
func (g *Graph) dvsBounded(mapping []int, procs int, maxRounds int) ([]float64, error) {
	n := len(g.Tasks)
	stretch := make([]float64, n)
	for i := range stretch {
		stretch[i] = 1
	}
	if !g.Feasible(mapping, procs, stretch) {
		return nil, fmt.Errorf("ctg: mapping misses the deadline even at nominal voltage")
	}
	// Global stretch: binary search the largest uniform factor.
	lo, hi := 1.0, 16.0
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		for i := range stretch {
			stretch[i] = mid
		}
		if g.Feasible(mapping, procs, stretch) {
			lo = mid
		} else {
			hi = mid
		}
	}
	for i := range stretch {
		stretch[i] = lo
	}
	// Greedy per-task refinement. Each round orders the tasks by their
	// current energy contribution, descending, ties to the lower index:
	// a total order, so the sorted slice does not depend on where the
	// previous round left it.
	byEnergy := func(a, b int) int {
		ea := g.Tasks[a].Power * g.Tasks[a].WCET / (stretch[a] * stretch[a])
		eb := g.Tasks[b].Power * g.Tasks[b].WCET / (stretch[b] * stretch[b])
		if c := cmp.Compare(eb, ea); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	const step = 1.05
	improved := true
	for rounds := 0; improved && rounds < maxRounds; rounds++ {
		improved = false
		slices.SortFunc(idx, byEnergy)
		for _, i := range idx {
			old := stretch[i]
			stretch[i] = old * step
			if g.Feasible(mapping, procs, stretch) {
				improved = true
			} else {
				stretch[i] = old
			}
		}
	}
	return stretch, nil
}
