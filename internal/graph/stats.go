package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes the structure of a graph. It backs the demo's
// dataset-comparison use case, where users contrast datasets before
// running algorithms on them.
type Stats struct {
	Nodes        int     `json:"nodes"`
	Edges        int64   `json:"edges"`
	Density      float64 `json:"density"`
	Reciprocity  float64 `json:"reciprocity"`
	SelfLoops    int64   `json:"self_loops"`
	Dangling     int     `json:"dangling"` // nodes with out-degree 0
	Sources      int     `json:"sources"`  // nodes with in-degree 0
	Isolated     int     `json:"isolated"` // nodes with no edges at all
	MaxInDegree  int     `json:"max_in_degree"`
	MaxOutDegree int     `json:"max_out_degree"`
	AvgDegree    float64 `json:"avg_degree"` // M / N
	SCCs         int     `json:"sccs"`
	LargestSCC   int     `json:"largest_scc"`
	// MemoryBytes is the graph's resident CSR size including every
	// derived hot-path view; LayoutBytes and SampleTableBytes are the
	// per-view shares of it. Capacity planning reads these from
	// /api/datasets/{name}.
	MemoryBytes      int64 `json:"memory_bytes"`
	LayoutBytes      int64 `json:"layout_bytes"`
	SampleTableBytes int64 `json:"sample_table_bytes"`
}

// ComputeStats collects the full Stats for g. It is O(N + M) plus one
// reciprocity pass (O(M log d)).
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	s := Stats{
		Nodes:            n,
		Edges:            g.NumEdges(),
		Density:          g.Density(),
		Reciprocity:      g.Reciprocity(),
		MemoryBytes:      g.MemoryFootprint(),
		LayoutBytes:      g.LayoutBytes(),
		SampleTableBytes: g.SampleTableBytes(),
	}
	if n > 0 {
		s.AvgDegree = float64(g.NumEdges()) / float64(n)
	}
	for v := 0; v < n; v++ {
		id := NodeID(v)
		in, out := g.InDegree(id), g.OutDegree(id)
		if out == 0 {
			s.Dangling++
		}
		if in == 0 {
			s.Sources++
		}
		if in == 0 && out == 0 {
			s.Isolated++
		}
		if in > s.MaxInDegree {
			s.MaxInDegree = in
		}
		if out > s.MaxOutDegree {
			s.MaxOutDegree = out
		}
		if g.HasEdge(id, id) {
			s.SelfLoops++
		}
	}
	scc := StronglyConnectedComponents(g)
	s.SCCs = scc.Count
	if _, size := scc.Largest(); size > 0 {
		s.LargestSCC = int(size)
	}
	return s
}

// String renders the stats as a compact single-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("N=%d M=%d density=%.6f reciprocity=%.3f sccs=%d largest_scc=%d dangling=%d",
		s.Nodes, s.Edges, s.Density, s.Reciprocity, s.SCCs, s.LargestSCC, s.Dangling)
}

// DegreeHistogram returns the distribution of the requested degree kind
// ("in" or "out") as a map from degree to node count.
func DegreeHistogram(g *Graph, kind string) (map[int]int, error) {
	hist := make(map[int]int)
	n := g.NumNodes()
	switch kind {
	case "in":
		for v := 0; v < n; v++ {
			hist[g.InDegree(NodeID(v))]++
		}
	case "out":
		for v := 0; v < n; v++ {
			hist[g.OutDegree(NodeID(v))]++
		}
	default:
		return nil, fmt.Errorf("graph: unknown degree kind %q (want \"in\" or \"out\")", kind)
	}
	return hist, nil
}

// TopByInDegree returns up to k node ids sorted by descending
// in-degree, breaking ties by ascending id. These are the "globally
// central" nodes Personalized PageRank tends to over-promote.
func TopByInDegree(g *Graph, k int) []NodeID {
	n := g.NumNodes()
	ids := make([]NodeID, n)
	for v := range ids {
		ids[v] = NodeID(v)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.InDegree(ids[i]), g.InDegree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	if k < 0 || k > n {
		k = n
	}
	return ids[:k]
}

// FormatAdjacency renders a small graph as readable text for debugging
// and golden tests. Graphs above maxNodes nodes are elided.
func FormatAdjacency(g *Graph, maxNodes int) string {
	var b strings.Builder
	n := g.NumNodes()
	fmt.Fprintf(&b, "graph N=%d M=%d\n", n, g.NumEdges())
	limit := n
	if maxNodes >= 0 && maxNodes < n {
		limit = maxNodes
	}
	for v := 0; v < limit; v++ {
		id := NodeID(v)
		fmt.Fprintf(&b, "  %s ->", g.Label(id))
		for _, w := range g.Out(id) {
			fmt.Fprintf(&b, " %s", g.Label(w))
		}
		b.WriteByte('\n')
	}
	if limit < n {
		fmt.Fprintf(&b, "  ... (%d more nodes)\n", n-limit)
	}
	return b.String()
}
