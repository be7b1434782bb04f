package bippr

import (
	"context"
	"math/rand"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// exactAdj is the layout view with its reciprocal table hidden, so
// pushLoop runs the exact per-edge-division kernel over the very rows
// (same id space, same order) the reciprocal kernel walks.
type exactAdj struct{ mappedAdj }

func (exactAdj) outRecip() []float64 { return nil }

// TestPushBlockedWithinRMax holds the reciprocal kernel (what every
// layout-carrying graph runs) to the exact per-edge-division kernel:
// reciprocal multiplication perturbs contributions by ulps, so the two
// pushes are not bit-identical, but both must satisfy the TargetIndex
// invariant — estimates within 2·rmax of each other, residuals
// strictly below rmax in both.
func TestPushBlockedWithinRMax(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 5; trial++ {
		n := 60 + rng.Intn(150)
		g := randomGraph(t, n, n*5, rng.Int63(), trial%2 == 0)
		target := graph.NodeID(rng.Intn(n))
		const rmax = 1e-4

		blocked, err := ReversePush(context.Background(), g, target, 0.85, rmax)
		if err != nil {
			t.Fatal(err)
		}
		lay := g.Layout()
		exact, err := pushLoop(context.Background(), exactAdj{mappedAdj{lay}}, n, lay.ToNew(target), 0.85, rmax, StorageAuto)
		if err != nil {
			t.Fatal(err)
		}
		exact.Estimates = remapVector(exact.Estimates, lay)

		if blocked.MaxResidual >= rmax || exact.MaxResidual >= rmax {
			t.Fatalf("trial %d: max residuals %v / %v not below rmax", trial, blocked.MaxResidual, exact.MaxResidual)
		}
		for s := 0; s < n; s++ {
			d := blocked.Estimates.Get(graph.NodeID(s)) - exact.Estimates.Get(graph.NodeID(s))
			if d > 2*rmax || d < -2*rmax {
				t.Errorf("trial %d: estimate at node %d differs by %v (> 2·rmax)", trial, s, d)
			}
		}
	}
}

// TestPushBlockedStorageBitIdentical re-pins the storage equivalence
// on the blocked kernel: within one kernel the sequence of vector and
// queue operations is storage-independent, so dense, sparse and auto
// pushes stay bit-identical with blocking on.
func TestPushBlockedStorageBitIdentical(t *testing.T) {
	g := randomGraph(t, 300, 2100, 31, true)
	dense, err := ReversePushStored(context.Background(), g, 5, 0.85, 1e-4, StorageDense)
	if err != nil {
		t.Fatal(err)
	}
	for _, storage := range []Storage{StorageSparse, StorageAuto} {
		got, err := ReversePushStored(context.Background(), g, 5, 0.85, 1e-4, storage)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pushes != dense.Pushes || got.MaxResidual != dense.MaxResidual {
			t.Fatalf("storage %d: pushes/maxres %d/%v, dense %d/%v",
				storage, got.Pushes, got.MaxResidual, dense.Pushes, dense.MaxResidual)
		}
		for s := 0; s < g.NumNodes(); s++ {
			v := graph.NodeID(s)
			if got.Estimates.Get(v) != dense.Estimates.Get(v) || got.Residuals.Get(v) != dense.Residuals.Get(v) {
				t.Fatalf("storage %d: node %d differs from dense push", storage, s)
			}
		}
	}
}
