// Package cluster implements address clustering, the primary contribution
// reproduced by this repository (DATE'03 1B.1, Macii/Macii/Poncino:
// "Improving the Efficiency of Memory Partitioning by Address Clustering").
//
// Memory partitioning exploits the spatial locality of an access profile;
// its efficiency is limited when hot and cold blocks are interleaved in
// the address space, because banks must be contiguous. Address clustering
// inserts a (hardware) address-translation stage that permutes the memory
// image at block granularity so that frequently accessed blocks — and
// blocks that are accessed close together in time — become contiguous.
// The partitioner can then carve small, hot banks and large, cold ones,
// cutting energy per access.
//
// The algorithm:
//
//  1. Profile the trace at block granularity: per-block access frequency
//     and a temporal-affinity graph (how often two blocks are touched by
//     consecutive accesses).
//  2. Order blocks greedily: start from the hottest block, then repeatedly
//     append the unplaced block with the best combination of affinity to
//     the recently placed blocks and own frequency.
//  3. Emit the block permutation and remap the trace through it.
//
// The permutation is realized in hardware as a small block-index
// translation table; its per-access energy cost is charged by the
// experiment harness.
//
//lint:hotpath
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lpmem/internal/trace"
)

// Clustering is a computed block permutation.
type Clustering struct {
	// BlockSize is the clustering granularity in bytes (power of two).
	BlockSize uint32
	// NewIndex maps an original block base address to its position in
	// the clustered image.
	NewIndex map[uint32]int
	// Order lists original block base addresses in clustered order:
	// Order[i] is the block placed at clustered index i.
	Order []uint32
}

// Config tunes the clustering heuristic.
type Config struct {
	// BlockSize is the clustering granularity; must be a power of two.
	BlockSize uint32
	// AffinityWeight balances temporal affinity against raw frequency
	// when choosing the next block. 0 degenerates to pure
	// frequency-descending ordering. The paper's profile-driven
	// heuristic corresponds to a positive weight; 1 works well.
	AffinityWeight float64
	// Window is how many recently placed blocks contribute affinity
	// when scoring a candidate. 1..4 are sensible; 2 is the default.
	Window int
}

// DefaultConfig returns the configuration used by the experiments.
// Frequency dominates the ordering; affinity only nudges blocks that are
// used together toward each other. A large affinity weight would let cold
// blocks ride along with hot partners and destroy the heat gradient the
// partitioner feeds on.
func DefaultConfig() Config {
	return Config{BlockSize: 256, AffinityWeight: 0.05, Window: 2}
}

// Cluster computes a clustering of the data accesses of t. A block size
// that is not a power of two, or an infinite affinity weight, is reported
// as an error so callers driven by external configuration can recover.
func Cluster(t *trace.Trace, cfg Config) (*Clustering, error) {
	if cfg.BlockSize == 0 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("cluster: block size %d is not a power of two", cfg.BlockSize)
	}
	if math.IsInf(cfg.AffinityWeight, 0) {
		return nil, fmt.Errorf("cluster: affinity weight %v is not finite", cfg.AffinityWeight)
	}
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	withAffinity := cfg.AffinityWeight > 0
	p := profileBlocks(t, ^(cfg.BlockSize - 1), withAffinity)

	// Each block's dense index is its rank in the deterministic starting
	// order: frequency descending, address ascending on ties.
	start := make([]int32, len(p.addr)) // rank -> first-seen id
	for i := range start {
		start[i] = int32(i)
	}
	sort.Slice(start, func(i, j int) bool {
		a, b := start[i], start[j]
		if p.freq[a] != p.freq[b] {
			return p.freq[a] > p.freq[b]
		}
		return p.addr[a] < p.addr[b]
	})
	// With no affinity every score is the block's own frequency, and the
	// greedy order is the starting order.
	order := start
	if withAffinity && len(start) > 0 {
		order = greedy(p, start, cfg.AffinityWeight, cfg.Window)
	}

	c := &Clustering{
		BlockSize: cfg.BlockSize,
		NewIndex:  make(map[uint32]int, len(order)),
		Order:     make([]uint32, len(order)),
	}
	for i, id := range order {
		c.Order[i] = p.addr[id]
		c.NewIndex[p.addr[id]] = i
	}
	return c, nil
}

// blockProfile is a trace's data-access profile at block granularity,
// indexed by the order in which blocks are first seen.
type blockProfile struct {
	addr []uint32 // block base address
	freq []uint64 // accesses to the block
	// pairs counts transitions between distinct consecutive blocks,
	// keyed by pairKey of their ids.
	pairs map[uint64]uint64
}

// profileBlocks profiles the data accesses of t; pairs are counted only
// when withPairs is set.
func profileBlocks(t *trace.Trace, mask uint32, withPairs bool) blockProfile {
	var p blockProfile
	if withPairs {
		p.pairs = make(map[uint64]uint64)
	}
	ids := make(map[uint32]int32)
	prev, prevID, havePrev := uint32(0), int32(0), false
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		b := a.Addr & mask
		id := prevID
		if !havePrev || b != prev {
			var ok bool
			if id, ok = ids[b]; !ok {
				id = int32(len(p.addr))
				ids[b] = id
				p.addr = append(p.addr, b)
				p.freq = append(p.freq, 0)
			}
			if havePrev && withPairs {
				p.pairs[pairKey(prevID, id)]++
			}
		}
		p.freq[id]++
		prev, prevID, havePrev = b, id, true
	}
	return p
}

func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// edge is one affinity-graph neighbour of a block: its rank and the
// number of transitions between the two.
type edge struct {
	to int32
	n  uint64
}

// greedy returns the clustered order of the first-seen ids in start,
// which lists them by rank. Starting from rank 0 it repeatedly appends
// the unplaced block with the highest score
//
//	freq + weight * (transitions to the last window placed blocks),
//
// ties going to the lower rank. Each block's window affinity is kept
// incrementally: a block's edges are added when it is placed and
// subtracted when it leaves the window, which gives the same integer sums
// as rescanning the window.
func greedy(p blockProfile, start []int32, weight float64, window int) []int32 {
	n := len(start)
	rank := make([]int32, n) // first-seen id -> rank
	freq := make([]uint64, n)
	for r, id := range start {
		rank[id] = int32(r)
		freq[r] = p.freq[id]
	}
	// Affinity adjacency in compressed rows: the edges of rank r are
	// edges[off[r]:off[r+1]]. Row order is immaterial; only sums and
	// rank tie-breaks reach the result.
	off := make([]int, n+1)
	for k := range p.pairs {
		off[rank[k>>32]+1]++
		off[rank[uint32(k)]+1]++
	}
	for r := 0; r < n; r++ {
		off[r+1] += off[r]
	}
	edges := make([]edge, off[n])
	fill := append([]int(nil), off[:n]...)
	for k, c := range p.pairs {
		a, b := rank[k>>32], rank[uint32(k)]
		edges[fill[a]] = edge{b, c}
		fill[a]++
		edges[fill[b]] = edge{a, c}
		fill[b]++
	}
	// The conversion rounds the product on its own, ruling out a fused
	// multiply-add, so scores match the two-step sum on every platform.
	score := func(r int32, aff uint64) float64 {
		return float64(freq[r]) + float64(weight*float64(aff))
	}

	used := make([]bool, n)
	aff := make([]uint64, n) // transitions to the blocks in the window
	order := make([]int32, 0, n)
	first := 0 // lowest unplaced rank
	next := int32(0)
	for {
		used[next] = true
		order = append(order, next)
		for _, e := range edges[off[next]:off[next+1]] {
			aff[e.to] += e.n
		}
		if k := len(order) - 1 - window; k >= 0 {
			left := order[k]
			for _, e := range edges[off[left]:off[left+1]] {
				aff[e.to] -= e.n
			}
		}
		if len(order) == n {
			for i, r := range order {
				order[i] = start[r]
			}
			return order
		}
		for used[first] {
			first++
		}
		// A block with no affinity to the window scores its own
		// frequency, at most that of the lowest unplaced rank, so only
		// that block and the window's unplaced neighbours can win.
		next = int32(first)
		best := score(next, aff[next])
		for _, w := range order[max(0, len(order)-window):] {
			for _, e := range edges[off[w]:off[w+1]] {
				if used[e.to] {
					continue
				}
				s := score(e.to, aff[e.to])
				//lint:allow floatcompare an exact tie goes to the lower rank, as in a scan by rank
				if s > best || (s == best && e.to < next) {
					next, best = e.to, s
				}
			}
		}
	}
}

// MapAddr translates an original address into the clustered image. An
// address whose block was never profiled maps to a fresh index appended
// after all profiled blocks, keeping the function total.
func (c *Clustering) MapAddr(addr uint32) uint32 {
	mask := ^(c.BlockSize - 1)
	base := addr & mask
	idx, ok := c.NewIndex[base]
	if !ok {
		// Unprofiled block: append deterministically.
		idx = len(c.Order) + int(base/c.BlockSize)%1024
	}
	return uint32(idx)*c.BlockSize + (addr & (c.BlockSize - 1))
}

// Remap returns a copy of t with every data address passed through
// MapAddr. Fetches are left untouched: clustering applies to the data
// memory only.
func (c *Clustering) Remap(t *trace.Trace) *trace.Trace {
	out := trace.New(t.Len())
	for _, a := range t.Accesses {
		if a.Kind != trace.Fetch {
			a.Addr = c.MapAddr(a.Addr)
		}
		out.Append(a)
	}
	return out
}

// IdentityBaseline returns the compacted-but-unclustered image of the same
// trace: blocks in ascending address order, exactly what the linker would
// produce without clustering hardware. Comparing Optimal(baseline) with
// Optimal(clustered) isolates the clustering benefit.
func IdentityBaseline(t *trace.Trace, blockSize uint32) (*Clustering, error) {
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("cluster: block size %d is not a power of two", blockSize)
	}
	order := profileBlocks(t, ^(blockSize - 1), false).addr
	slices.Sort(order)
	c := &Clustering{BlockSize: blockSize, NewIndex: make(map[uint32]int, len(order)), Order: order}
	for i, b := range order {
		c.NewIndex[b] = i
	}
	return c, nil
}
