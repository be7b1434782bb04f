package pagerank

import (
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// TestCombine2DSquareSweep verifies the square-sweep order against a
// hand-worked example.
//
// With PR ranks K = [1,2,3,4] and CheiRank ranks K* = [4,3,2,1]
// (node index = position in the arrays):
//
//	node1: max(2,3)=3, horizontal border (K*=3, K<3)
//	node2: max(3,2)=3, vertical border   (K=3)
//	node0: max(1,4)=4, horizontal border (K*=4, K<4)
//	node3: max(4,1)=4, vertical border   (K=4)
//
// Square s=3 precedes s=4; within a square the vertical border comes
// first. Expected 2DRank order: node2, node1, node3, node0.
func TestCombine2DSquareSweep(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ranking.NewResult("pr", g, []float64{4, 3, 2, 1}) // ranks 1,2,3,4
	if err != nil {
		t.Fatal(err)
	}
	cr, err := ranking.NewResult("cr", g, []float64{1, 2, 3, 4}) // ranks 4,3,2,1
	if err != nil {
		t.Fatal(err)
	}
	res, err := Combine2D(g, pr, cr, "2drank")
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []graph.NodeID{2, 1, 3, 0}
	top := res.Top(-1)
	if len(top) != 4 {
		t.Fatalf("scored %d nodes", len(top))
	}
	for i, want := range wantOrder {
		if top[i].Node != want {
			t.Errorf("2DRank position %d = node %d, want node %d (full: %v)", i+1, top[i].Node, want, top)
		}
	}
	// Scores are 1/position.
	if top[0].Score != 1 || top[3].Score != 0.25 {
		t.Errorf("scores = %v, %v", top[0].Score, top[3].Score)
	}
}

// TestCombine2DDiagonal checks the corner case where a node sits
// exactly on the square corner (K == K* == s): it belongs to the
// vertical border and precedes same-step horizontal nodes.
func TestCombine2DDiagonal(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// PR ranks: node0=1, node1=2, node2=3. K* ranks: node0=3, node1=2, node2=1.
	pr, _ := ranking.NewResult("pr", g, []float64{3, 2, 1})
	cr, _ := ranking.NewResult("cr", g, []float64{1, 2, 3})
	res, err := Combine2D(g, pr, cr, "2drank")
	if err != nil {
		t.Fatal(err)
	}
	// node1: max(2,2)=2 (corner, vertical) — first.
	// node2: max(3,1)=3 vertical; node0: max(1,3)=3 horizontal.
	wantOrder := []graph.NodeID{1, 2, 0}
	top := res.Top(-1)
	for i, want := range wantOrder {
		if top[i].Node != want {
			t.Errorf("position %d = node %d, want %d", i+1, top[i].Node, want)
		}
	}
}
