package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// Cycle is one elementary cycle through the reference node, stored as
// the node sequence starting at the reference (the closing edge back
// to it is implicit).
type Cycle struct {
	Nodes []graph.NodeID
}

// Len returns the cycle's length in edges.
func (c Cycle) Len() int { return len(c.Nodes) }

// Labels renders the cycle through the graph's label table, appending
// the reference again at the end to show the closure.
func (c Cycle) Labels(g *graph.Graph) []string {
	out := make([]string, 0, len(c.Nodes)+1)
	for _, v := range c.Nodes {
		out = append(out, g.Label(v))
	}
	if len(c.Nodes) > 0 {
		out = append(out, g.Label(c.Nodes[0]))
	}
	return out
}

// ListCycles enumerates up to limit elementary cycles of length ≤ K
// through r, shortest first — the explanation view a UI shows when a
// user asks *why* a node is ranked ("which cycles connect me to it?").
// Cycles of one length come in ascending order of their node
// sequences. limit ≤ 0 means no cap. The total cycle count (not
// capped) is returned alongside.
func ListCycles(ctx context.Context, g *graph.Graph, r graph.NodeID, p Params, limit int) ([]Cycle, int64, error) {
	return shortestCycles(ctx, g, r, p, limit, func([]graph.NodeID) bool { return true })
}

// CyclesThrough reports, for a particular node i, up to limit cycles
// containing both r and i, in ListCycles' order — the drill-down behind
// a single table row.
func CyclesThrough(ctx context.Context, g *graph.Graph, r, i graph.NodeID, p Params, limit int) ([]Cycle, error) {
	if !g.ValidNode(i) {
		return nil, fmt.Errorf("core: node %d not in graph (N=%d)", i, g.NumNodes())
	}
	cycles, _, err := shortestCycles(ctx, g, r, p, limit, func(path []graph.NodeID) bool {
		return slices.Contains(path, i)
	})
	return cycles, err
}

// shortestCycles enumerates the cycles through r and returns the first
// limit of those keep accepts, ordered by length and then by node
// sequence, plus the count of every cycle enumerated. The enumeration
// extends a path over each node's sorted out-list, so it meets the
// cycles of one length in ascending node-sequence order: keeping the
// first limit of each length keeps the right ones, and no more than
// limit·(K−1) cycles are ever copied.
func shortestCycles(ctx context.Context, g *graph.Graph, r graph.NodeID, p Params, limit int, keep func(path []graph.NodeID) bool) ([]Cycle, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if !g.ValidNode(r) {
		return nil, 0, fmt.Errorf("core: reference node %d not in graph (N=%d)", r, g.NumNodes())
	}
	byLen := make([][]Cycle, p.K+1) // byLen[n]: kept cycles of n edges
	total, err := enumerate(ctx, g, r, p.K, func(path []graph.NodeID) {
		n := len(path)
		if (limit > 0 && len(byLen[n]) >= limit) || !keep(path) {
			return
		}
		byLen[n] = append(byLen[n], Cycle{Nodes: slices.Clone(path)})
	})
	if err != nil {
		return nil, 0, err
	}
	var cycles []Cycle
	for _, bucket := range byLen {
		cycles = append(cycles, bucket...)
	}
	if limit > 0 && len(cycles) > limit {
		cycles = cycles[:limit]
	}
	return cycles, total, nil
}
