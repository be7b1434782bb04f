package graph

import "fmt"

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
	// derived hot-path view, once built; LayoutBytes and
	// SampleTableBytes are the per-view shares of it. They are the
	// same whether or not the views have been built yet. Capacity
	// planning reads these from /api/datasets/{name}.
	MemoryBytes      int64 `json:"memory_bytes"`
	LayoutBytes      int64 `json:"layout_bytes"`
	SampleTableBytes int64 `json:"sample_table_bytes"`
}

// ComputeStats collects the full Stats for g in O(N + M): one merge
// pass counts the mutual edges and self-loops, one pass the degrees,
// one the strongly connected components.
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	mutual, selfLoops := g.mutualEdges()
	s := Stats{
		Nodes:            n,
		Edges:            g.NumEdges(),
		Density:          g.Density(),
		Reciprocity:      g.reciprocity(mutual),
		SelfLoops:        selfLoops,
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
