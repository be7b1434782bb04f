package graph

import (
	"fmt"
	"maps"
	"slices"
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
	// built is set when the last Build handed names and byName to a
	// graph's LabelTable; the next new label copies them first.
	built bool
	err   error
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
	// names starts empty, not nil: Build adopts it as the label table,
	// and an empty graph's table matches NewLabelTable(nil)'s.
	return &Builder{labeled: true, names: []string{}, byName: make(map[string]NodeID)}
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
	if b.built {
		// Build clipped names, so the append below copies them too.
		b.byName = maps.Clone(b.byName)
		b.built = false
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

// AddLabeledEdgeBytes is AddLabeledEdge for labels held in a reused
// buffer, such as a scanner's line: a label already interned is found
// without allocating, and a new one is copied once.
func (b *Builder) AddLabeledEdgeBytes(from, to []byte) {
	intern := func(label []byte) NodeID {
		if id, ok := b.byName[string(label)]; ok {
			return id
		}
		return b.AddNode(string(label))
	}
	u := intern(from)
	v := intern(to)
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
// further edges may be added and Build called again. A labeled
// graph's LabelTable adopts the builder's intern map and name slice
// rather than rebuilding them; the builder copies both before it
// interns another label, so a built graph's labels never change.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n

	// Out-CSR by counting sort on source: bucket every target into its
	// source's row, then sort each row and collapse its duplicates,
	// compacting the rows leftwards in place.
	outOff := make([]int64, n+1)
	for _, e := range b.edges {
		outOff[e.From+1]++
	}
	for v := 0; v < n; v++ {
		outOff[v+1] += outOff[v]
	}
	next := make([]int64, n)
	copy(next, outOff)
	adj := make([]NodeID, len(b.edges))
	for _, e := range b.edges {
		adj[next[e.From]] = e.To
		next[e.From]++
	}
	var m int64
	for v := 0; v < n; v++ {
		row := adj[outOff[v]:outOff[v+1]]
		slices.Sort(row)
		row = slices.Compact(row)
		outOff[v] = m
		m += int64(copy(adj[m:], row))
	}
	outOff[n] = m
	if m < int64(len(adj)) {
		// Duplicates collapsed: copy out so the graph does not pin the
		// pre-dedup buffer.
		adj = append(make([]NodeID, 0, m), adj[:m]...)
	}

	g := &Graph{
		outOff:   outOff,
		outAdj:   adj,
		inOff:    make([]int64, n+1),
		inAdj:    make([]NodeID, m),
		numEdges: m,
	}

	// In-CSR by counting sort on target; sources are appended in
	// ascending order because rows are visited by ascending source, so
	// each in-adjacency list comes out sorted.
	for _, w := range adj {
		g.inOff[w+1]++
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	copy(next, g.inOff)
	for v := 0; v < n; v++ {
		for _, w := range g.Out(NodeID(v)) {
			g.inAdj[next[w]] = NodeID(v)
			next[w]++
		}
	}

	if b.labeled {
		// AddNode admits only non-empty labels, each once, so the
		// intern map already is the table NewLabelTable would build.
		b.names = slices.Clip(b.names)
		g.labels = &LabelTable{names: b.names, ids: b.byName}
		b.built = true
	}
	// The hot-path views are promised here and built on first use:
	// only reverse push reads the layout and only walks the sample
	// table, so a graph that is uploaded, saved and ranked pays for
	// neither.
	g.layout = new(view[Layout])
	if n > 0 && sampleTableFits(outOff) {
		g.sample = new(view[SampleTable])
	}
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
