package bippr

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// appendEndpointsSerial walks the chunk one walk at a time — the
// reference stepper: the straightforward consumption order of the
// per-walk substreams. Absorbed walks append nothing.
func (w *WalkEstimator) appendEndpointsSerial(ends []graph.NodeID, source graph.NodeID, chunk, count int) []graph.NodeID {
	base := uint64(chunk) * walkChunk
	for i := 0; i < count; i++ {
		rng := newWalkRNG(w.seed, source, base+uint64(i))
		if end, ok := w.walkEndpoint(&rng, source); ok {
			ends = append(ends, end)
		}
	}
	return ends
}

// serialEndpoints is the oracle of the batched stepper: the endpoint
// set recorded by walking every chunk serially. Its EstimateSum folds
// chunks exactly like WalkEstimator.EstimateSum does.
func serialEndpoints(w *WalkEstimator, source graph.NodeID, walks int) *EndpointSet {
	set := &EndpointSet{Walks: walks, chunks: make([][]EndpointCount, numChunks(walks))}
	for c := range set.chunks {
		ends := w.appendEndpointsSerial(nil, source, c, chunkCount(walks, c))
		slices.Sort(ends)
		for _, e := range ends {
			if n := len(set.chunks[c]); n > 0 && set.chunks[c][n-1].Node == e {
				set.chunks[c][n-1].Count++
			} else {
				set.chunks[c] = append(set.chunks[c], EndpointCount{Node: e, Count: 1})
			}
		}
	}
	return set
}

// TestBatchedSteppingBitIdentical is the batched-stepper equivalence
// property test: for random graphs (half of them dangling-heavy, so
// absorbed walks exercise the cohort compaction), seeds and walk
// counts, the level-synchronous cohort stepper must produce estimates
// AND recorded endpoint counts bit-identical (==, not approximately
// equal) to the serial per-walk stepper, at workers 1, 2 and 8. The
// batching only changes the order CSR rows are visited in, never
// which substream a walk draws from or how its draws are consumed.
func TestBatchedSteppingBitIdentical(t *testing.T) {
	allowWorkers(t, 8)
	rng := rand.New(rand.NewSource(41))
	walkCounts := []int{1, 127, 128, 129, 1000, 4096}
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(100)
		g := randomGraph(t, n, n*4, rng.Int63(), trial%2 == 0)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 1e-3
		}
		wv := NewDenseVector(weights)
		seed := rng.Int63()
		source := graph.NodeID(rng.Intn(n))
		walks := walkCounts[trial%len(walkCounts)]

		// The default batched stepper steps through the sample table;
		// the no-table variant replays the slice-stepping fallback
		// (what a table-less graph runs) on the same substreams.
		batched := NewWalkEstimator(g, 0.85, seed, 0)
		if batched.table == nil {
			t.Fatal("built graph has no sample table; the table stepper cannot be exercised")
		}
		noTable := NewWalkEstimator(g, 0.85, seed, 0)
		noTable.table = nil
		estimators := map[string]*WalkEstimator{"batched": batched, "batched-no-table": noTable}

		wantSet := serialEndpoints(batched, source, walks)
		want := wantSet.EstimateSum(wv)
		for _, workers := range []int{1, 2, 8} {
			for name, est := range estimators {
				got, err := est.EstimateSum(context.Background(), source, walks, wv, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("trial %d (n=%d walks=%d workers=%d): %s estimate %v != serial %v",
						trial, n, walks, workers, name, got, want)
				}

				gotSet, err := est.Endpoints(context.Background(), source, walks, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotSet.chunks) != len(wantSet.chunks) {
					t.Fatalf("trial %d: %d chunks %s, %d serial", trial, len(gotSet.chunks), name, len(wantSet.chunks))
				}
				for c := range wantSet.chunks {
					a, b := gotSet.chunks[c], wantSet.chunks[c]
					if len(a) != len(b) {
						t.Fatalf("trial %d chunk %d: %d entries %s, %d serial", trial, c, len(a), name, len(b))
					}
					for i := range b {
						if a[i] != b[i] {
							t.Fatalf("trial %d chunk %d entry %d: %s %+v != serial %+v", trial, c, i, name, a[i], b[i])
						}
					}
				}
			}
		}
	}
}

// TestBatchedPairBitIdentical asserts the property at the pair-query
// level: the full bidirectional estimate with the batched stepper
// (the default every query runs) equals the serial-stepper estimate
// exactly, at workers 1, 2 and 8.
func TestBatchedPairBitIdentical(t *testing.T) {
	allowWorkers(t, 8)
	g := randomGraph(t, 150, 700, 23, false) // keep dangling nodes in play
	p := Params{Alpha: 0.85, RMax: 1e-4, Walks: 3000, Seed: 7}.withDefaults()
	for _, pair := range [][2]graph.NodeID{{0, 1}, {10, 99}, {42, 42}} {
		idx, err := ReversePush(context.Background(), g, pair[1], p.Alpha, p.RMax)
		if err != nil {
			t.Fatal(err)
		}
		serial := serialEndpoints(NewWalkEstimator(g, p.Alpha, p.Seed, p.MaxSteps), pair[0], p.Walks)
		want := idx.Estimates.Get(pair[0]) + serial.EstimateSum(idx.Residuals)
		for _, workers := range []int{1, 2, 8} {
			q := p
			q.Workers = workers
			got, err := Bidirectional(context.Background(), g, pair[0], pair[1], q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != want {
				t.Errorf("π(%d,%d) workers=%d: batched pair %v != serial-stepper pair %v",
					pair[0], pair[1], workers, got.Value, want)
			}
		}
	}
}

// TestDistributionMatchesEndpoints pins Distribution to the same
// substreams the chunked paths draw from: the histogram it returns
// must equal the recorded endpoint counts exactly.
func TestDistributionMatchesEndpoints(t *testing.T) {
	g := randomGraph(t, 80, 320, 3, false)
	w := NewWalkEstimator(g, 0.85, 11, 0)
	const walks = 1500
	dist, err := w.Distribution(context.Background(), 2, walks)
	if err != nil {
		t.Fatal(err)
	}
	set, err := w.Endpoints(context.Background(), 2, walks, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, g.NumNodes())
	for _, chunk := range set.chunks {
		for _, e := range chunk {
			counts[e.Node] += float64(e.Count) / walks
		}
	}
	for v := range counts {
		if dist[v] != counts[v] {
			// Distribution accumulates 1/walks increments; the recorded
			// path scales a whole count at once. Allow only float
			// accumulation noise between the two.
			if diff := dist[v] - counts[v]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("node %d: distribution %v, recorded %v", v, dist[v], counts[v])
			}
		}
	}
}

// TestWalkPassAllocsFlat guards the pooled-scratch fix: a steady-state
// fresh-walk pass must not allocate per chunk — only the pass-level
// bookkeeping (partial sums, borrowed scratch pointers, span) remains,
// so allocations stay flat as the chunk count grows.
func TestWalkPassAllocsFlat(t *testing.T) {
	g := randomGraph(t, 200, 1200, 9, true)
	wv := NewDenseVector(make([]float64, g.NumNodes()))
	w := NewWalkEstimator(g, 0.85, 1, 0)
	run := func(walks int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := w.EstimateSum(context.Background(), 0, walks, wv, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Warm the pool and the scratch buffers.
	run(walkChunk * 64)
	few, many := run(walkChunk*4), run(walkChunk*64)
	if many > few+8 {
		t.Errorf("allocs grew with chunk count: %v at 4 chunks, %v at 64", few, many)
	}
	if many > 32 {
		t.Errorf("walk pass allocates %v times per run; scratch is not pooled", many)
	}
}
