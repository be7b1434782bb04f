package graph

import (
	"cmp"
	"slices"
)

// Layout is a cache-conscious node reordering computed once per
// graph, on first use: nodes sorted by total degree (in + out)
// descending, ties broken by ascending original id. High-degree hubs —
// the nodes a local push visits most and whose adjacency rows are
// longest — are packed together at the low end of the id space, so a
// reverse-push frontier that keeps returning to hubs touches a compact
// prefix of the arrays instead of scattering across the full address
// range.
//
// The layout is a *view*, not a replacement: the Graph's canonical
// CSR, labels, and structural Fingerprint all stay in the original id
// space, so artifact keys and every existing API are unchanged.
// Algorithms opt in by walking the remapped arrays and translating
// results back through ToOld. Only the in-CSR and the out-degree
// table are remapped — exactly the two structures the reverse-push
// inner loop reads — so the extra residency is about half the
// original CSR, and MemoryFootprint reports it. Only reverse push
// reads it, so a graph no push runs on never builds it.
type Layout struct {
	perm   []NodeID  // perm[old] = new
	inv    []NodeID  // inv[new] = old
	inOff  []int64   // in-CSR over new ids
	inAdj  []NodeID  // predecessors as new ids, sorted per row
	outDeg []int32   // out-degree indexed by new id
	recip  []float64 // 1/outDeg by new id (0 for dangling) — the blocked push kernel's divide-free scale table
}

// ToNew translates an original node id into the layout's id space.
func (l *Layout) ToNew(old NodeID) NodeID { return l.perm[old] }

// ToOld translates a layout id back to the original node id.
func (l *Layout) ToOld(new NodeID) NodeID { return l.inv[new] }

// In returns the predecessors of the layout-space node v, themselves
// as layout ids, sorted ascending. The slice aliases internal storage
// and must not be modified.
func (l *Layout) In(v NodeID) []NodeID {
	return l.inAdj[l.inOff[v]:l.inOff[v+1]]
}

// OutDegree returns the out-degree of the layout-space node v.
func (l *Layout) OutDegree(v NodeID) int { return int(l.outDeg[v]) }

// OutRecip returns the table of reciprocal out-degrees indexed by
// layout id (0 at dangling nodes, which never appear as
// in-neighbors). The blocked push kernel multiplies by these instead
// of dividing per edge. The slice aliases internal storage and must
// not be modified.
func (l *Layout) OutRecip() []float64 { return l.recip }

// layoutBytes is the resident size of the layout of a graph with n
// nodes and m edges, known without building it: n+1 offsets and n
// reciprocals of 8 bytes, perm, inv, the out-degrees and m
// predecessors of 4.
func layoutBytes(n int, m int64) int64 {
	return int64(n+1)*8 + int64(3*n)*4 + m*4 + int64(n)*8
}

// Layout returns the graph's cache-conscious node reordering, or nil
// when the graph carries none (the zero Graph, Transpose views, or
// WithoutLayout copies). The layout is built on the first call; the
// reverse-push workers that race for it build it exactly once and all
// read the same one.
func (g *Graph) Layout() *Layout {
	return g.layout.get(func() *Layout { return buildLayout(g) })
}

// LayoutBytes returns the resident size of the layout view in bytes
// once built (0 when the graph carries none) — the delta
// MemoryFootprint reports over the bare CSR. It is computed from the
// graph's shape and never builds the view.
func (g *Graph) LayoutBytes() int64 {
	if g.layout == nil {
		return 0
	}
	return layoutBytes(g.NumNodes(), g.numEdges)
}

// WithoutLayout returns a copy of g with the layout view dropped.
// Algorithms that dispatch on Layout() fall back to original-id-space
// traversal on the copy, which is what the mapped-vs-direct
// equivalence tests measure against. The copy shares all CSR storage
// with g.
func (g *Graph) WithoutLayout() *Graph {
	clone := *g
	clone.layout = nil
	return &clone
}

// buildLayout computes the degree-descending permutation and the
// remapped in-CSR/out-degree view of g.
func buildLayout(g *Graph) *Layout {
	n := g.NumNodes()
	l := &Layout{
		perm:   make([]NodeID, n),
		inv:    make([]NodeID, n),
		inOff:  make([]int64, n+1),
		inAdj:  make([]NodeID, len(g.inAdj)),
		outDeg: make([]int32, n),
		recip:  make([]float64, n),
	}
	for v := range l.inv {
		l.inv[v] = NodeID(v)
	}
	degree := func(v NodeID) int64 {
		return (g.outOff[v+1] - g.outOff[v]) + (g.inOff[v+1] - g.inOff[v])
	}
	// Ties break on id, so the order is total and needs no stable sort.
	slices.SortFunc(l.inv, func(a, b NodeID) int {
		if c := cmp.Compare(degree(b), degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for new, old := range l.inv {
		l.perm[old] = NodeID(new)
	}

	// In-CSR in the new id space: row new is row inv[new] with every
	// predecessor translated, re-sorted so rows stay canonical.
	for new := 0; new < n; new++ {
		old := l.inv[new]
		row := g.In(old)
		l.inOff[new+1] = l.inOff[new] + int64(len(row))
		dst := l.inAdj[l.inOff[new]:l.inOff[new+1]]
		for i, u := range row {
			dst[i] = l.perm[u]
		}
		slices.Sort(dst)
		deg := g.outOff[old+1] - g.outOff[old]
		l.outDeg[new] = int32(deg)
		if deg > 0 {
			l.recip[new] = 1 / float64(deg)
		}
	}
	return l
}
