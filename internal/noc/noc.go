// Package noc models a regular 2D-mesh network-on-chip and implements the
// energy- and performance-aware IP mapping of DATE'03 8B.2 (Hu &
// Marculescu: "Exploiting the Routing Flexibility for Energy/Performance
// Aware Mapping of Regular NoC Architectures").
//
// The communication energy of sending one bit over h hops is
//
//	e_bit(h) = (h+1)·E_Rbit + h·E_Lbit
//
// (one router per hop plus the source router, one link per hop), so total
// communication energy is Σ_flows volume · e_bit(dist(map(src), map(dst))).
// The mapper is a branch-and-bound over tile assignments: IPs are placed
// in decreasing order of communication demand, partial costs are bounded
// from below, and a mapping is only accepted if the link bandwidth
// constraints can be satisfied by per-flow selection of XY or YX
// deterministic routing (the "routing flexibility" of the title — it both
// enlarges the feasible space and is deadlock-free for any mix, as XY and
// YX flows use disjoint turn sets per virtual channel).
//
//lint:hotpath
package noc

import (
	"fmt"
	"slices"
	"sort"

	"lpmem/internal/energy"
)

// Mesh is the target architecture.
type Mesh struct {
	// W and H are the mesh dimensions; W*H tiles.
	W, H int
	// LinkBW is the capacity of each directed link, in MB/s.
	LinkBW float64
	// ERbit and ELbit are per-bit router and link energies.
	ERbit, ELbit energy.PJ
}

// DefaultMesh returns the 4x4 mesh used by the E10 experiment.
func DefaultMesh() Mesh {
	return Mesh{W: 4, H: 4, LinkBW: 1000, ERbit: 0.284, ELbit: 0.449}
}

// Tiles returns the tile count.
func (m Mesh) Tiles() int { return m.W * m.H }

// coord returns the (x,y) of a tile index.
func (m Mesh) coord(t int) (int, int) { return t % m.W, t / m.W }

// dist is the Manhattan distance between two tiles.
func (m Mesh) dist(a, b int) int {
	ax, ay := m.coord(a)
	bx, by := m.coord(b)
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Dist is the Manhattan distance between two tiles. It is exported for
// the NUCA bank-distance latency model, which charges hops between a
// core's tile and the bank that holds its line.
func (m Mesh) Dist(a, b int) int { return m.dist(a, b) }

// BitEnergy returns e_bit for a path of h hops.
func (m Mesh) BitEnergy(h int) energy.PJ {
	return energy.PJ(h+1)*m.ERbit + energy.PJ(h)*m.ELbit
}

// Flow is one communication edge of the application core graph.
type Flow struct {
	// Src and Dst are IP indices.
	Src, Dst int
	// Volume is the total traffic in bits (drives energy).
	Volume float64
	// BW is the sustained bandwidth requirement in MB/s (drives link
	// capacity constraints).
	BW float64
}

// Graph is the application: N IP cores and their flows.
type Graph struct {
	N     int
	Flows []Flow
}

// Validate checks indices.
func (g *Graph) Validate() error {
	for _, f := range g.Flows {
		if f.Src < 0 || f.Src >= g.N || f.Dst < 0 || f.Dst >= g.N || f.Src == f.Dst {
			return fmt.Errorf("noc: bad flow %+v for %d cores", f, g.N)
		}
	}
	return nil
}

// CommEnergy returns the total communication energy of a mapping
// (mapping[ip] = tile).
func (m Mesh) CommEnergy(g *Graph, mapping []int) energy.PJ {
	var e energy.PJ
	for _, f := range g.Flows {
		h := m.dist(mapping[f.Src], mapping[f.Dst])
		e += energy.PJ(f.Volume) * m.BitEnergy(h)
	}
	return e
}

// RowMajor returns the ad-hoc baseline mapping: IP i on tile i.
func RowMajor(n int) []int {
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = i
	}
	return mapping
}

// Routing is the per-flow choice of deterministic route.
type Routing int

// Route kinds.
const (
	XY Routing = iota
	YX
)

// Link directions out of a tile. The directed link leaving tile t in
// direction d has index t*numDirs+d, so link loads fit a flat slice.
const (
	east  = iota // +x
	west         // -x
	south        // +y
	north        // -y
	numDirs
)

// appendRoute appends the link indices of the src->dst route under r.
func (m Mesh) appendRoute(links []int, src, dst int, r Routing) []int {
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	if r == XY {
		return m.yLeg(m.xLeg(links, sy, sx, dx), dx, sy, dy)
	}
	return m.xLeg(m.yLeg(links, sx, sy, dy), dy, sx, dx)
}

// xLeg appends the links of the straight run along row y from column x0
// to column x1.
func (m Mesh) xLeg(links []int, y, x0, x1 int) []int {
	dir, step := east, 1
	if x1 < x0 {
		dir, step = west, -1
	}
	for x := x0; x != x1; x += step {
		links = append(links, (y*m.W+x)*numDirs+dir)
	}
	return links
}

// yLeg appends the links of the straight run along column x from row y0
// to row y1.
func (m Mesh) yLeg(links []int, x, y0, y1 int) []int {
	dir, step := south, 1
	if y1 < y0 {
		dir, step = north, -1
	}
	for y := y0; y != y1; y += step {
		links = append(links, (y*m.W+x)*numDirs+dir)
	}
	return links
}

// bwChecker is the bandwidth feasibility test bound to one mesh and
// graph. The flow order is sorted once, link loads live in a flat slice,
// and each flow's routes are cached for its current endpoint tiles, so a
// check, which runs at every branch-and-bound leaf, does not allocate and
// only reroutes the flows whose endpoints moved since the last check.
type bwChecker struct {
	m     Mesh
	flows []Flow
	// order lists flow indices by decreasing bandwidth, index ascending
	// on ties.
	order []int
	// load is the committed bandwidth per directed link.
	load []float64
	// routes[2*i+r] holds the links of flow i under route r between the
	// endpoint tiles ends[2*i+r]; each has room for the longest route.
	routes [][]int
	ends   [][2]int
}

func newBWChecker(m Mesh, g *Graph) *bwChecker {
	order := make([]int, len(g.Flows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := g.Flows[order[a]], g.Flows[order[b]]
		//lint:allow floatcompare exact tie-break keeps the sort order deterministic
		if fa.BW != fb.BW {
			return fa.BW > fb.BW
		}
		return order[a] < order[b]
	})
	hops := m.W + m.H - 2
	arena := make([]int, 2*len(g.Flows)*hops)
	routes := make([][]int, 2*len(g.Flows))
	ends := make([][2]int, len(routes))
	for k := range routes {
		routes[k] = arena[k*hops : k*hops : (k+1)*hops]
		ends[k] = [2]int{-1, -1}
	}
	return &bwChecker{
		m:      m,
		flows:  g.Flows,
		order:  order,
		load:   make([]float64, m.Tiles()*numDirs),
		routes: routes,
		ends:   ends,
	}
}

// check reports whether the flows can be routed under mapping within link
// capacities, writing the chosen route of each flow into routing. The
// selection is greedy: flows in decreasing bandwidth order take XY if it
// fits, else YX, else the mapping is infeasible.
func (c *bwChecker) check(mapping []int, routing []Routing) bool {
	clear(c.load)
	for _, i := range c.order {
		f := c.flows[i]
		src, dst := mapping[f.Src], mapping[f.Dst]
		r, path := XY, c.route(i, XY, src, dst)
		if !c.fits(path, f.BW) {
			r, path = YX, c.route(i, YX, src, dst)
			if !c.fits(path, f.BW) {
				return false
			}
		}
		routing[i] = r
		for _, l := range path {
			c.load[l] += f.BW
		}
	}
	return true
}

// route returns the links of flow i under r from tile src to tile dst.
func (c *bwChecker) route(i int, r Routing, src, dst int) []int {
	k := 2*i + int(r)
	if c.ends[k] != [2]int{src, dst} {
		c.ends[k] = [2]int{src, dst}
		c.routes[k] = c.m.appendRoute(c.routes[k][:0], src, dst, r)
	}
	return c.routes[k]
}

// fits reports whether bw more on every link of path keeps within
// capacity.
func (c *bwChecker) fits(path []int, bw float64) bool {
	for _, l := range path {
		if c.load[l]+bw > c.m.LinkBW {
			return false
		}
	}
	return true
}

// CheckBandwidth reports whether the flows of g under the mapping can be
// routed within link capacities using per-flow XY/YX selection. It returns
// the chosen routing per flow when feasible. The selection is greedy:
// flows in decreasing bandwidth order take XY if it fits, else YX, else
// the mapping is infeasible.
func (m Mesh) CheckBandwidth(g *Graph, mapping []int) ([]Routing, bool) {
	routing := make([]Routing, len(g.Flows))
	if !newBWChecker(m, g).check(mapping, routing) {
		return nil, false
	}
	return routing, true
}

// MapResult is the outcome of the branch-and-bound mapper.
type MapResult struct {
	Mapping []int
	Routing []Routing
	Energy  energy.PJ
	// Visited counts explored search nodes (for reporting).
	Visited uint64
}

// MapBnB finds a minimum-energy bandwidth-feasible mapping by
// branch-and-bound. maxNodes caps the search (0 means 50M nodes); the best
// mapping found so far is returned if the cap is hit, making the mapper an
// anytime algorithm.
func MapBnB(m Mesh, g *Graph, maxNodes uint64) (*MapResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.N > m.Tiles() {
		return nil, fmt.Errorf("noc: %d cores exceed %d tiles", g.N, m.Tiles())
	}
	if maxNodes == 0 {
		maxNodes = 50_000_000
	}

	// Order IPs by total communication volume, descending: placing the
	// talkative cores first makes bounds tight early.
	vol := make([]float64, g.N)
	for _, f := range g.Flows {
		vol[f.Src] += f.Volume
		vol[f.Dst] += f.Volume
	}
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		//lint:allow floatcompare exact tie-break keeps the sort order deterministic
		if vol[order[a]] != vol[order[b]] {
			return vol[order[a]] > vol[order[b]]
		}
		return order[a] < order[b]
	})

	// Per-IP flow adjacency for incremental cost.
	adj := make([][]Flow, g.N)
	for _, f := range g.Flows {
		adj[f.Src] = append(adj[f.Src], f)
		adj[f.Dst] = append(adj[f.Dst], f)
	}

	// Initial incumbent: greedy row-major if feasible, else +inf. The
	// leaf check writes into one routing scratch that is copied only when
	// it becomes the incumbent's.
	bw := newBWChecker(m, g)
	routing := make([]Routing, len(g.Flows))
	best := &MapResult{Energy: energy.PJ(1e30)}
	rm := RowMajor(g.N)
	if bw.check(rm, routing) {
		best = &MapResult{Mapping: rm, Routing: slices.Clone(routing), Energy: m.CommEnergy(g, rm)}
	}

	mapping := make([]int, g.N)
	for i := range mapping {
		mapping[i] = -1
	}
	usedTile := make([]bool, m.Tiles())
	var visited uint64

	// Lower-bound terms for the flows not yet fully placed: each costs at
	// least volume*e_bit(1), since 0 hops is impossible between distinct
	// tiles. Which flows count depends only on the depth, because IPs
	// are placed in a fixed order, so the terms are listed once per depth
	// (bound[at[pos]:at[pos+1]]) and summed in the same sequence at every
	// node.
	minBit := m.BitEnergy(1) // cheapest possible non-zero-hop cost
	posOf := make([]int, g.N)
	for pos, ip := range order {
		posOf[ip] = pos
	}
	at := make([]int, g.N+1)
	// Each depth lists every flow at most once.
	bound := make([]energy.PJ, 0, g.N*len(g.Flows))
	for pos := 0; pos < g.N; pos++ {
		for p2 := pos + 1; p2 < g.N; p2++ {
			u := order[p2]
			for _, f := range adj[u] {
				other := f.Src
				if other == u {
					other = f.Dst
				}
				// Count half-placed flows once (from their unplaced
				// endpoint) and unplaced-unplaced flows once (from the
				// smaller-index endpoint).
				if posOf[other] <= pos || u < other {
					bound = append(bound, energy.PJ(f.Volume)*minBit)
				}
			}
		}
		at[pos+1] = len(bound)
	}

	var dfs func(pos int, cost energy.PJ)
	dfs = func(pos int, cost energy.PJ) {
		if visited >= maxNodes {
			return
		}
		visited++
		if cost >= best.Energy {
			return
		}
		if pos == g.N {
			if bw.check(mapping, routing) {
				best = &MapResult{
					Mapping: slices.Clone(mapping),
					Routing: slices.Clone(routing),
					Energy:  cost,
				}
			}
			return
		}
		ip := order[pos]
		for tile := 0; tile < m.Tiles(); tile++ {
			if usedTile[tile] {
				continue
			}
			// Symmetry breaking: the first IP only explores one
			// octant representative set of the mesh.
			if pos == 0 && !inOctant(m, tile) {
				continue
			}
			mapping[ip] = tile
			usedTile[tile] = true
			// Incremental exact cost of flows now fully placed, plus an
			// admissible 1-hop bound for half-placed flows.
			inc := energy.PJ(0)
			for _, f := range adj[ip] {
				other := f.Src
				if other == ip {
					other = f.Dst
				}
				if mapping[other] >= 0 {
					h := m.dist(tile, mapping[other])
					inc += energy.PJ(f.Volume) * m.BitEnergy(h)
				}
			}
			lb := cost + inc
			for _, b := range bound[at[pos]:at[pos+1]] {
				lb += b
			}
			if lb < best.Energy {
				dfs(pos+1, cost+inc)
			}
			mapping[ip] = -1
			usedTile[tile] = false
		}
	}
	dfs(0, 0)
	best.Visited = visited
	if best.Mapping == nil {
		return nil, fmt.Errorf("noc: no bandwidth-feasible mapping found")
	}
	return best, nil
}

// inOctant restricts the first placed IP to a canonical region:
// one octant for square meshes (8 symmetries), one quadrant otherwise
// (4 symmetries).
func inOctant(m Mesh, tile int) bool {
	x, y := m.coord(tile)
	if x >= (m.W+1)/2 || y >= (m.H+1)/2 {
		return false
	}
	if m.W == m.H {
		return x <= y
	}
	return true
}
