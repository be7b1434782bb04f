package graph

// SampleTable is the walk phase's O(1) per-step stepping structure:
// one packed machine word per node holding (out-row start, out-degree),
// built once per graph, on the first walk, next to the CSR. Advancing
// a walk parked on v costs a single 8-byte load (the packed word;
// degree test and row start come out of it for free) plus the
// adjacency entry itself — it never re-touches the two CSR offset
// entries or materializes a row slice header the way Graph.Out does. On a level-synchronous cohort
// where many walks sit on the same node, that packed word stays in L1
// while each walk draws its own edge.
//
// The table is a pure acceleration view: it indexes the graph's own
// outAdj array, so the node a table step picks for a given RNG draw is
// exactly the node the slice path picks — walk estimates are
// bit-identical with the table on or off (test-pinned by
// TestBatchedSteppingBitIdentical). The structural Fingerprint never
// sees it.
type SampleTable struct {
	rows []uint64 // rows[v] = rowStart<<sampleDegBits | outDegree
	adj  []NodeID // aliases the graph's outAdj
}

// sampleDegBits splits the packed word: the low bits carry the
// out-degree, the high bits the row start. 24 degree bits cap a row at
// ~16.7M out-edges and leave 40 bits (~1.1T edges) of row start —
// graphs beyond either bound simply build no table and the walk path
// falls back to the CSR slices.
const (
	sampleDegBits  = 24
	sampleDegMask  = 1<<sampleDegBits - 1
	maxSampleStart = 1<<(64-sampleDegBits) - 1
)

// sampleTableFits reports whether every out-row of the out-CSR with
// the given offsets fits the packing: the check Build records, so a
// graph that cannot carry a table never promises one.
func sampleTableFits(outOff []int64) bool {
	for v := 0; v+1 < len(outOff); v++ {
		if outOff[v+1]-outOff[v] > sampleDegMask || outOff[v] > maxSampleStart {
			return false
		}
	}
	return true
}

// buildSampleTable packs g's out-CSR shape into a sample table; Build
// has checked that every row fits.
func buildSampleTable(g *Graph) *SampleTable {
	n := g.NumNodes()
	rows := make([]uint64, n)
	for v := 0; v < n; v++ {
		start := g.outOff[v]
		rows[v] = uint64(start)<<sampleDegBits | uint64(g.outOff[v+1]-start)
	}
	return &SampleTable{rows: rows, adj: g.outAdj}
}

// Degree returns the out-degree of v (one masked load).
func (t *SampleTable) Degree(v NodeID) int {
	return int(t.rows[v] & sampleDegMask)
}

// Pick returns the i-th out-neighbor of v, 0 ≤ i < Degree(v) — the
// same entry Graph.Out(v)[i] holds, read through the packed row start.
func (t *SampleTable) Pick(v NodeID, i int) NodeID {
	return t.adj[int64(t.rows[v]>>sampleDegBits)+int64(i)]
}

// SampleTable returns the graph's packed walk-stepping table, or nil
// when the graph carries none (zero and empty graphs, Transpose views,
// or rows overflowing the packing). The table is built on the first
// call; the walk workers that race for it build it exactly once and
// all read the same one.
func (g *Graph) SampleTable() *SampleTable {
	return g.sample.get(func() *SampleTable { return buildSampleTable(g) })
}

// SampleTableBytes returns the resident size of the sample table once
// built — the walk-phase share MemoryFootprint reports on top of the
// CSR. It is computed from the graph's shape and never builds the
// table.
func (g *Graph) SampleTableBytes() int64 {
	if g.sample == nil {
		return 0
	}
	return int64(g.NumNodes()) * 8
}
