package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph.
//
// A Builder accepts edges in any order, tolerates duplicates (they are
// collapsed) and self-loops (they are kept; algorithms decide how to
// treat them). Nodes may be added explicitly with AddNode — useful for
// isolated nodes — or implicitly by the edges that mention them.
//
// Builders are either *indexed* (NewBuilder, nodes are pre-sized dense
// ids) or *labeled* (NewLabeledBuilder, nodes are interned by name).
// The zero value is a labeled builder with no nodes.
type Builder struct {
	n       int
	edges   []Edge
	names   []string
	byName  map[string]NodeID
	labeled bool
	err     error
}

// NewBuilder returns a builder for an unlabeled graph with n nodes
// identified by the dense ids 0..n-1.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n}
	if n < 0 {
		b.err = fmt.Errorf("graph: negative node count %d", n)
		b.n = 0
	}
	if n > MaxNodeID {
		b.err = fmt.Errorf("graph: node count %d exceeds limit %d", n, MaxNodeID)
		b.n = 0
	}
	return b
}

// NewLabeledBuilder returns a builder whose nodes are interned by
// string label on first use.
func NewLabeledBuilder() *Builder {
	return &Builder{labeled: true, byName: make(map[string]NodeID)}
}

// AddNode ensures a node with the given label exists and returns its
// id. It is only valid on labeled builders.
func (b *Builder) AddNode(label string) NodeID {
	if !b.labeled {
		b.fail(fmt.Errorf("graph: AddNode on indexed builder"))
		return -1
	}
	if b.byName == nil {
		b.byName = make(map[string]NodeID)
	}
	if label == "" {
		b.fail(fmt.Errorf("graph: empty node label"))
		return -1
	}
	if id, ok := b.byName[label]; ok {
		return id
	}
	if b.n >= MaxNodeID {
		b.fail(fmt.Errorf("graph: node count exceeds limit %d", MaxNodeID))
		return -1
	}
	id := NodeID(b.n)
	b.byName[label] = id
	b.names = append(b.names, label)
	b.n++
	return id
}

// AddEdge records the directed edge (from, to) between dense ids. It is
// only valid on indexed builders; ids must lie in [0, n).
func (b *Builder) AddEdge(from, to NodeID) {
	if b.labeled {
		b.fail(fmt.Errorf("graph: AddEdge on labeled builder (use AddLabeledEdge)"))
		return
	}
	if from < 0 || int(from) >= b.n || to < 0 || int(to) >= b.n {
		b.fail(fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, b.n))
		return
	}
	b.edges = append(b.edges, Edge{From: from, To: to})
}

// AddLabeledEdge records the directed edge (from, to) between labeled
// nodes, interning labels as needed.
func (b *Builder) AddLabeledEdge(from, to string) {
	u := b.AddNode(from)
	v := b.AddNode(to)
	if u < 0 || v < 0 {
		return
	}
	b.edges = append(b.edges, Edge{From: u, To: v})
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of edge records added so far (before
// de-duplication).
func (b *Builder) NumEdges() int { return len(b.edges) }

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first error recorded by the builder, if any.
func (b *Builder) Err() error { return b.err }

// Build produces the immutable Graph. It returns the first error
// recorded during construction, if any. The builder remains usable:
// further edges may be added and Build called again.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n

	// Sort a copy of the edges by (from, to) and collapse duplicates.
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	edges = dedup
	m := int64(len(edges))

	g := &Graph{
		outOff:   make([]int64, n+1),
		outAdj:   make([]NodeID, m),
		inOff:    make([]int64, n+1),
		inAdj:    make([]NodeID, m),
		numEdges: m,
	}

	// Out-CSR directly from the sorted edge list.
	for _, e := range edges {
		g.outOff[e.From+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	for i, e := range edges {
		g.outAdj[i] = e.To
	}

	// In-CSR by counting sort on target; sources are appended in
	// ascending order because the edge list is sorted by From, so each
	// in-adjacency list comes out sorted.
	for _, e := range edges {
		g.inOff[e.To+1]++
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	next := make([]int64, n)
	for v := 0; v < n; v++ {
		next[v] = g.inOff[v]
	}
	for _, e := range edges {
		g.inAdj[next[e.To]] = e.From
		next[e.To]++
	}

	if b.labeled {
		lt, err := NewLabelTable(b.names)
		if err != nil {
			return nil, err
		}
		g.labels = lt
	}
	g.layout = buildLayout(g)
	g.sample = buildSampleTable(g)
	return g, nil
}

// FromEdges is a convenience constructor building an unlabeled graph
// with n nodes from an edge slice.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.From, e.To)
	}
	return b.Build()
}

// WithLabels attaches a label table to a copy of g. The names slice
// must have exactly NumNodes entries.
func (g *Graph) WithLabels(names []string) (*Graph, error) {
	if len(names) != g.NumNodes() {
		return nil, fmt.Errorf("graph: %d labels for %d nodes", len(names), g.NumNodes())
	}
	lt, err := NewLabelTable(names)
	if err != nil {
		return nil, err
	}
	clone := *g
	clone.labels = lt
	return &clone, nil
}
