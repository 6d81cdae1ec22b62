package ctg

import "math/rand"

// CruiseController returns a hand-crafted conditional task graph in the
// style of the paper's real-life example: a vehicle cruise-control
// application where one branch (obstacle detected) triggers a braking
// chain and the other a speed-maintenance chain, plus an optional
// driver-display update.
//
// Conditions: c0 = obstacle detected (p=0.3), c1 = display on (p=0.5).
func CruiseController() *Graph {
	cond := func(v int, val bool) Guard { return Guard{Var: v, Val: val} }
	none := Guard{Var: NoCond}
	return &Graph{
		Tasks: []Task{
			{Name: "sense-speed", WCET: 8, Power: 2.0, Guard: none},           // 0
			{Name: "sense-radar", WCET: 10, Power: 2.4, Guard: none},          // 1
			{Name: "filter", WCET: 12, Power: 1.8, Guard: none},               // 2
			{Name: "detect", WCET: 9, Power: 2.2, Guard: none},                // 3
			{Name: "brake-plan", WCET: 14, Power: 3.0, Guard: cond(0, true)},  // 4
			{Name: "brake-act", WCET: 7, Power: 2.6, Guard: cond(0, true)},    // 5
			{Name: "speed-plan", WCET: 11, Power: 2.1, Guard: cond(0, false)}, // 6
			{Name: "throttle", WCET: 6, Power: 1.7, Guard: cond(0, false)},    // 7
			{Name: "log", WCET: 5, Power: 1.2, Guard: none},                   // 8
			{Name: "display-fmt", WCET: 6, Power: 1.5, Guard: cond(1, true)},  // 9
			{Name: "display-out", WCET: 4, Power: 1.3, Guard: cond(1, true)},  // 10
			{Name: "commit", WCET: 5, Power: 1.6, Guard: none},                // 11
		},
		Deps: [][]int{
			{},        // 0
			{},        // 1
			{0},       // 2
			{1, 2},    // 3
			{3},       // 4
			{4},       // 5
			{3},       // 6
			{6},       // 7
			{3},       // 8
			{3},       // 9
			{9},       // 10
			{5, 7, 8}, // 11: joins whichever branch ran
		},
		CondProb: []float64{0.3, 0.5},
		Deadline: 90,
	}
}

// RandomCTG generates a layered conditional task graph for ablation
// studies: layers of tasks with edges to the previous layer, a fraction of
// tasks guarded by one of nConds conditions.
func RandomCTG(seed int64, layers, perLayer, nConds int, deadlineSlack float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{}
	for v := 0; v < nConds; v++ {
		g.CondProb = append(g.CondProb, 0.2+0.6*rng.Float64())
	}
	totalWCET := 0.0
	for l := 0; l < layers; l++ {
		for k := 0; k < perLayer; k++ {
			id := len(g.Tasks)
			t := Task{
				Name:  "t",
				WCET:  2 + float64(rng.Intn(12)),
				Power: 1 + 2*rng.Float64(),
				Guard: Guard{Var: NoCond},
			}
			if nConds > 0 && rng.Float64() < 0.4 {
				t.Guard = Guard{Var: rng.Intn(nConds), Val: rng.Intn(2) == 0}
			}
			totalWCET += t.WCET
			g.Tasks = append(g.Tasks, t)
			var deps []int
			if l > 0 {
				prevStart := (l - 1) * perLayer
				for d := 0; d < 1+rng.Intn(2); d++ {
					//lint:allow hotalloc generator output: each task owns its one or two deps
					deps = append(deps, prevStart+rng.Intn(perLayer))
				}
			}
			g.Deps = append(g.Deps, deps)
			_ = id
		}
	}
	// Deadline: serial WCET / layers gives a rough parallel makespan;
	// multiply by the requested slack factor.
	g.Deadline = totalWCET / float64(perLayer) * deadlineSlack
	return g
}
