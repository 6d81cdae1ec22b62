package ctg

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// GAConfig tunes the genetic mapping search.
type GAConfig struct {
	// Population and Generations size the search.
	Population  int
	Generations int
	// MutationRate is the per-gene mutation probability.
	MutationRate float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultGAConfig returns the settings used by the E11 experiment.
func DefaultGAConfig() GAConfig {
	return GAConfig{Population: 24, Generations: 30, MutationRate: 0.08, Seed: 1}
}

// GAResult is the outcome of the mapping search.
type GAResult struct {
	Mapping []int
	Stretch []float64
	Energy  float64
}

// RoundRobin returns the naive baseline mapping.
func RoundRobin(tasks, procs int) []int {
	m := make([]int, tasks)
	for i := range m {
		m[i] = i % procs
	}
	return m
}

// MapGA searches task-to-processor mappings with a genetic algorithm;
// fitness of a mapping is the expected energy after running the DVS pass
// on it (infeasible mappings are heavily penalized). The search carries
// the best two individuals into every generation, so it needs a
// population of at least two and a graph with at least one task.
func MapGA(g *Graph, procs int, cfg GAConfig) (*GAResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if procs <= 0 {
		return nil, fmt.Errorf("ctg: need at least one processor")
	}
	if cfg.Population < 2 {
		return nil, fmt.Errorf("ctg: GA population %d below the two elites", cfg.Population)
	}
	if len(g.Tasks) == 0 {
		return nil, fmt.Errorf("ctg: GA needs at least one task to map")
	}
	// Fitness is a pure function of the mapping, and crossover of
	// converging parents keeps producing mappings already seen (only
	// about a third of the evaluations are distinct), so it is memoised
	// per call. The key is the mapping's uvarint encoding.
	type fitness struct {
		energy  float64
		stretch []float64
	}
	//lint:allow hotalloc per-call fitness memo, sized by the distinct mappings the search visits
	memo := make(map[string]fitness)
	var key []byte
	return runGA(g, procs, cfg, func(mapping []int) (float64, []float64) {
		key = key[:0]
		for _, p := range mapping {
			key = binary.AppendUvarint(key, uint64(p))
		}
		if f, ok := memo[string(key)]; ok {
			return f.energy, f.stretch
		}
		e, s := gaFitness(g, procs, mapping)
		//lint:allow hotalloc one key string per distinct mapping, the memo's payload
		memo[string(key)] = fitness{energy: e, stretch: s}
		return e, s
	})
}

// gaFitness is the GA's fitness: the expected energy after a cheap DVS
// pass (few refinement rounds); the winner is re-evaluated with the full
// pass at the end.
func gaFitness(g *Graph, procs int, mapping []int) (float64, []float64) {
	stretch, err := g.dvsBounded(mapping, procs, 6)
	if err != nil {
		return 1e18, nil
	}
	return g.Energy(stretch), stretch
}

// runGA is MapGA's search over validated inputs with the given fitness
// function, which must be pure: the result depends only on cfg.Seed and
// the fitness values.
func runGA(g *Graph, procs int, cfg GAConfig, evaluate func([]int) (float64, []float64)) (*GAResult, error) {
	n := len(g.Tasks)
	rng := rand.New(rand.NewSource(cfg.Seed))

	type individual struct {
		mapping []int
		energy  float64
		stretch []float64
	}
	// Two generations of individuals and their genes (mappings, n ints
	// each, in one backing), swapped after every generation: a child is
	// built from the current generation straight into the other one.
	pop, next := make([]individual, cfg.Population), make([]individual, cfg.Population)
	genes, nextGenes := make([]int, cfg.Population*n), make([]int, cfg.Population*n)
	copy(genes, RoundRobin(n, procs)) // seed with the baseline
	for p := range pop {
		m := genes[p*n : (p+1)*n : (p+1)*n]
		if p > 0 {
			for i := range m {
				m[i] = rng.Intn(procs)
			}
		}
		e, s := evaluate(m)
		pop[p] = individual{mapping: m, energy: e, stretch: s}
	}
	sortPop := func() {
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].energy < pop[b].energy })
	}
	sortPop()

	tournament := func() individual {
		a := pop[rng.Intn(len(pop))]
		b := pop[rng.Intn(len(pop))]
		if a.energy <= b.energy {
			return a
		}
		return b
	}
	for gen := 0; gen < cfg.Generations; gen++ {
		for p := range next {
			child := nextGenes[p*n : (p+1)*n : (p+1)*n]
			if p < 2 {
				// Elitism: carry the best two.
				copy(child, pop[p].mapping)
				next[p] = individual{mapping: child, energy: pop[p].energy, stretch: pop[p].stretch}
				continue
			}
			pa, pb := tournament(), tournament()
			cut := rng.Intn(n)
			copy(child, pa.mapping[:cut])
			copy(child[cut:], pb.mapping[cut:])
			for i := range child {
				if rng.Float64() < cfg.MutationRate {
					child[i] = rng.Intn(procs)
				}
			}
			e, s := evaluate(child)
			next[p] = individual{mapping: child, energy: e, stretch: s}
		}
		pop, next = next, pop
		genes, nextGenes = nextGenes, genes
		sortPop()
	}
	best := pop[0]
	if best.stretch == nil {
		return nil, fmt.Errorf("ctg: GA found no feasible mapping")
	}
	stretch, err := g.DVS(best.mapping, procs)
	if err != nil {
		return nil, err
	}
	return &GAResult{Mapping: slices.Clone(best.mapping), Stretch: stretch, Energy: g.Energy(stretch)}, nil
}
