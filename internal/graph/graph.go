// Package graph provides the directed-graph substrate used by every
// algorithm in this repository.
//
// Graphs are immutable once built and stored in compressed sparse row
// (CSR) form for both out- and in-adjacency, so that forward algorithms
// (PageRank, CycleRank pruning) and backward algorithms (CheiRank,
// reverse BFS) are equally cheap. Node identifiers are dense int32
// indices in [0, N); an optional label table maps external string names
// (article titles, product names, user handles) to node ids.
//
// Construction goes through a Builder, which tolerates duplicate edges,
// self-loops and out-of-order input, and produces a canonical Graph with
// sorted, de-duplicated adjacency lists.
package graph

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// NodeID identifies a node in a Graph. IDs are dense indices in [0, N).
type NodeID = int32

// Edge is a directed edge between two nodes.
type Edge struct {
	From NodeID
	To   NodeID
}

// Graph is an immutable directed graph in CSR form.
//
// The zero value is an empty graph with no nodes and no edges; it is
// safe to call every accessor on it.
type Graph struct {
	// CSR over out-edges: outAdj[outOff[v]:outOff[v+1]] are the sorted
	// successors of v.
	outOff []int64
	outAdj []NodeID

	// CSR over in-edges: inAdj[inOff[v]:inOff[v+1]] are the sorted
	// predecessors of v.
	inOff []int64
	inAdj []NodeID

	labels *LabelTable // nil when the graph is unlabeled

	// layout is the cache-conscious node reordering view built
	// alongside the CSR (see Layout); nil on zero graphs, Transpose
	// views, and WithoutLayout copies.
	layout *Layout

	// sample is the walk phase's packed (rowStart, degree) stepping
	// table (see SampleTable); nil on zero graphs, Transpose views,
	// and graphs whose rows overflow the packing.
	sample *SampleTable

	numEdges int64
}

// NumNodes returns the number of nodes N.
func (g *Graph) NumNodes() int {
	if len(g.outOff) == 0 {
		return 0
	}
	return len(g.outOff) - 1
}

// NumEdges returns the number of distinct directed edges M.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// Out returns the sorted successor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Out(v NodeID) []NodeID {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// In returns the sorted predecessor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) In(v NodeID) []NodeID {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// HasEdge reports whether the edge (from, to) exists. It runs in
// O(log outdeg(from)) using binary search over the sorted adjacency.
func (g *Graph) HasEdge(from, to NodeID) bool {
	if from < 0 || to < 0 || int(from) >= g.NumNodes() || int(to) >= g.NumNodes() {
		return false
	}
	adj := g.Out(from)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= to })
	return i < len(adj) && adj[i] == to
}

// ValidNode reports whether v is a node of g.
func (g *Graph) ValidNode(v NodeID) bool {
	return v >= 0 && int(v) < g.NumNodes()
}

// Labels returns the graph's label table, or nil if the graph is
// unlabeled.
func (g *Graph) Labels() *LabelTable { return g.labels }

// Label returns the label of v, or its decimal id when the graph is
// unlabeled.
func (g *Graph) Label(v NodeID) string {
	if g.labels == nil {
		return fmt.Sprintf("%d", v)
	}
	return g.labels.Name(v)
}

// NodeByLabel resolves a label to a node id. On unlabeled graphs the
// decimal node id itself acts as the label, mirroring Label's
// fallback, so "42" resolves to node 42. The boolean is false when the
// label is unknown.
func (g *Graph) NodeByLabel(name string) (NodeID, bool) {
	if g.labels == nil {
		id, err := strconv.ParseInt(name, 10, 32)
		if err != nil || id < 0 || int(id) >= g.NumNodes() {
			return 0, false
		}
		return NodeID(id), true
	}
	return g.labels.ID(name)
}

// Edges calls fn for every edge in canonical order (by source, then by
// target). It stops early if fn returns false.
func (g *Graph) Edges(fn func(from, to NodeID) bool) {
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		for _, w := range g.Out(NodeID(v)) {
			if !fn(NodeID(v), w) {
				return
			}
		}
	}
}

// Transpose returns a view of g with every edge reversed. The view
// shares storage with g: building it is O(1) and mutating neither is
// possible. Labels are shared. The layout view does not transfer —
// it remaps g's in-CSR, which is the view's out-CSR — so algorithms
// running on a transpose fall back to original-id traversal.
func (g *Graph) Transpose() *Graph {
	return &Graph{
		outOff:   g.inOff,
		outAdj:   g.inAdj,
		inOff:    g.outOff,
		inAdj:    g.outAdj,
		labels:   g.labels,
		numEdges: g.numEdges,
	}
}

// Density returns M / (N·(N−1)), the fraction of possible directed
// edges present (self-loops excluded from the denominator). It returns
// 0 for graphs with fewer than two nodes.
func (g *Graph) Density() float64 {
	n := float64(g.NumNodes())
	if n < 2 {
		return 0
	}
	return float64(g.numEdges) / (n * (n - 1))
}

// Reciprocity returns the fraction of edges (u,v) for which the reverse
// edge (v,u) also exists. Self-loops count as reciprocal. It returns 0
// for edgeless graphs.
//
// Reciprocity is the structural quantity CycleRank leverages: a
// high-in-degree hub with near-zero reciprocity is invisible to
// CycleRank but dominant for Personalized PageRank.
func (g *Graph) Reciprocity() float64 {
	if g.numEdges == 0 {
		return 0
	}
	var mutual int64
	g.Edges(func(from, to NodeID) bool {
		if g.HasEdge(to, from) {
			mutual++
		}
		return true
	})
	return float64(mutual) / float64(g.numEdges)
}

// DanglingNodes returns the ids of all nodes with out-degree zero, in
// ascending order. PageRank implementations must treat these specially.
func (g *Graph) DanglingNodes() []NodeID {
	var out []NodeID
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if g.OutDegree(NodeID(v)) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// MaxNodeID is the largest node count supported by a single graph.
const MaxNodeID = math.MaxInt32 - 1

// csrBytes returns the resident size of the plain CSR arrays alone,
// excluding derived views.
func (g *Graph) csrBytes() int64 {
	return int64(len(g.outOff)+len(g.inOff))*8 + int64(len(g.outAdj)+len(g.inAdj))*4
}

// MemoryFootprint returns an estimate, in bytes, of the graph's
// in-memory size: the CSR arrays plus every derived hot-path view
// present — the cache-conscious layout and the walk sample table
// (labels excluded). Capacity planning must see the views'
// residency — the layout alone is about half the CSR again — which
// is why they are included here rather than only in the per-view
// byte accessors.
func (g *Graph) MemoryFootprint() int64 {
	return g.csrBytes() + g.layout.Bytes() + g.sample.Bytes()
}
