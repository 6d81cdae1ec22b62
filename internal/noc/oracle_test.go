package noc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// linkID identifies a directed mesh link by its endpoints; the reference
// implementation below keys link loads by it.
type linkID struct{ from, to int }

// refWalk calls fn on each link of a route, one closure call per hop.
func refWalk(m Mesh, src, dst int, r Routing, fn func(linkID)) {
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	cur := src
	stepX := func() {
		nx := x + sign(dx-x)
		next := y*m.W + nx
		fn(linkID{cur, next})
		x, cur = nx, next
	}
	stepY := func() {
		ny := y + sign(dy-y)
		next := ny*m.W + x
		fn(linkID{cur, next})
		y, cur = ny, next
	}
	if r == XY {
		for x != dx {
			stepX()
		}
		for y != dy {
			stepY()
		}
	} else {
		for y != dy {
			stepY()
		}
		for x != dx {
			stepX()
		}
	}
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// refCheckBandwidth is the original map-based bandwidth check, kept as
// the oracle for bwChecker: it re-sorts the flows and builds a link-load
// map on every call.
func refCheckBandwidth(m Mesh, g *Graph, mapping []int) ([]Routing, bool) {
	load := make(map[linkID]float64)
	idx := make([]int, len(g.Flows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		fa, fb := g.Flows[idx[a]], g.Flows[idx[b]]
		if fa.BW != fb.BW {
			return fa.BW > fb.BW
		}
		return idx[a] < idx[b]
	})
	routing := make([]Routing, len(g.Flows))
	fits := func(src, dst int, r Routing, bw float64) bool {
		ok := true
		refWalk(m, src, dst, r, func(l linkID) {
			if load[l]+bw > m.LinkBW {
				ok = false
			}
		})
		return ok
	}
	commit := func(src, dst int, r Routing, bw float64) {
		refWalk(m, src, dst, r, func(l linkID) { load[l] += bw })
	}
	for _, i := range idx {
		f := g.Flows[i]
		src, dst := mapping[f.Src], mapping[f.Dst]
		switch {
		case fits(src, dst, XY, f.BW):
			routing[i] = XY
			commit(src, dst, XY, f.BW)
		case fits(src, dst, YX, f.BW):
			routing[i] = YX
			commit(src, dst, YX, f.BW)
		default:
			return nil, false
		}
	}
	return routing, true
}

// linkIndex converts a neighbour-to-neighbour link to its flat index.
func linkIndex(m Mesh, l linkID) int {
	fx, fy := m.coord(l.from)
	tx, ty := m.coord(l.to)
	dir := east
	switch {
	case tx < fx:
		dir = west
	case ty > fy:
		dir = south
	case ty < fy:
		dir = north
	}
	return l.from*numDirs + dir
}

// randomCase draws a mesh (square or not), a graph on at most its tile
// count, and a random placement. Bandwidths are either non-integral, so
// the summation order matters, or drawn from a grid, so flows tie and
// loads can meet capacity exactly; link capacity is drawn so that a fair
// share of placements is infeasible.
func randomCase(r *rand.Rand) (Mesh, *Graph, []int) {
	m := Mesh{W: 2 + r.Intn(4), H: 2 + r.Intn(4), ERbit: 0.284, ELbit: 0.449}
	n := 2 + r.Intn(m.Tiles()-1)
	g := &Graph{N: n}
	// On a grid of bandwidths flows tie and links fill exactly to
	// capacity.
	grid := r.Intn(2) == 0
	for i := 0; i < 1+r.Intn(3*n); i++ {
		s, d := r.Intn(n), r.Intn(n)
		if s == d {
			continue
		}
		bw := 10 + 90*r.Float64()
		if grid {
			bw = float64(25 * (1 + r.Intn(3)))
		}
		g.Flows = append(g.Flows, Flow{Src: s, Dst: d, Volume: bw * 1e3, BW: bw})
	}
	m.LinkBW = 60 + 200*r.Float64()
	if grid {
		m.LinkBW = float64(50 * (2 + r.Intn(3)))
	}
	return m, g, r.Perm(m.Tiles())[:n]
}

// TestRouteMatchesReferenceWalk: appendRoute visits the same links, in
// the same order, as the reference walk.
func TestRouteMatchesReferenceWalk(t *testing.T) {
	for _, m := range []Mesh{DefaultMesh(), {W: 5, H: 3}, {W: 2, H: 6}} {
		for src := 0; src < m.Tiles(); src++ {
			for dst := 0; dst < m.Tiles(); dst++ {
				for _, r := range []Routing{XY, YX} {
					var want []int
					refWalk(m, src, dst, r, func(l linkID) { want = append(want, linkIndex(m, l)) })
					if got := m.appendRoute(nil, src, dst, r); !slices.Equal(got, want) {
						t.Fatalf("%dx%d %d->%d %v: route %v, want %v", m.W, m.H, src, dst, r, got, want)
					}
				}
			}
		}
	}
}

// TestCheckerMatchesReference: on random graphs, meshes and placements
// the flat-slice checker agrees with the map-based oracle on feasibility
// and on every flow's route, including when one checker is reused across
// calls as the branch-and-bound does.
func TestCheckerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	feasible := 0
	const cases = 400
	for k := 0; k < cases; k++ {
		m, g, mapping := randomCase(r)
		c := newBWChecker(m, g)
		routing := make([]Routing, len(g.Flows))
		for rep := 0; rep < 3; rep++ {
			want, wantOK := refCheckBandwidth(m, g, mapping)
			ok := c.check(mapping, routing)
			if ok != wantOK || (ok && !slices.Equal(routing, want)) {
				t.Fatalf("case %d: check = %v %v, want %v %v (mesh %dx%d, flows %+v, mapping %v)",
					k, ok, routing, wantOK, want, m.W, m.H, g.Flows, mapping)
			}
			got, gotOK := m.CheckBandwidth(g, mapping)
			if gotOK != wantOK || !slices.Equal(got, want) {
				t.Fatalf("case %d: CheckBandwidth = %v %v, want %v %v", k, got, gotOK, want, wantOK)
			}
			if ok && rep == 0 {
				feasible++
			}
			r.Shuffle(len(mapping), func(i, j int) { mapping[i], mapping[j] = mapping[j], mapping[i] })
		}
	}
	if feasible < cases/10 || feasible > cases*9/10 {
		t.Fatalf("%d of %d cases feasible: the generator no longer exercises both outcomes", feasible, cases)
	}
}

// TestMapperRoutingMatchesReference: the mapper's reported routing is
// the oracle's routing of its own mapping.
func TestMapperRoutingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for k := 0; k < 20; k++ {
		m, g, _ := randomCase(r)
		m.LinkBW *= 4
		res, err := MapBnB(m, g, 20_000)
		if err != nil {
			continue
		}
		want, ok := refCheckBandwidth(m, g, res.Mapping)
		if !ok || !slices.Equal(res.Routing, want) {
			t.Fatalf("case %d: routing %v, oracle %v (feasible %v)", k, res.Routing, want, ok)
		}
	}
}

// TestLeafCheckDoesNotAllocate: the branch-and-bound leaf check must not
// allocate, feasible or not.
func TestLeafCheckDoesNotAllocate(t *testing.T) {
	g := MMSGraph()
	for _, bw := range []float64{1500, 700, 100} {
		m := DefaultMesh()
		m.LinkBW = bw
		c := newBWChecker(m, g)
		mapping := RowMajor(g.N)
		routing := make([]Routing, len(g.Flows))
		if n := testing.AllocsPerRun(100, func() { c.check(mapping, routing) }); n != 0 {
			t.Fatalf("LinkBW %v: leaf check allocates %v times per run", bw, n)
		}
	}
}

// BenchmarkCheckBandwidth times the branch-and-bound leaf check on the
// E10 graph at its headline link bandwidth.
func BenchmarkCheckBandwidth(b *testing.B) {
	g := MMSGraph()
	m := DefaultMesh()
	c := newBWChecker(m, g)
	mapping := RowMajor(g.N)
	routing := make([]Routing, len(g.Flows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.check(mapping, routing)
	}
}
