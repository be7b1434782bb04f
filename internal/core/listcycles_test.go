package core

import (
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

func TestListCycles(t *testing.T) {
	// Cycles through 0: (0,1) len 2 and (0,1,2) len 3.
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 0), edge(1, 2), edge(2, 0)})
	cycles, total, err := ListCycles(nil, g, 0, Params{K: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(cycles) != 2 {
		t.Fatalf("total=%d listed=%d", total, len(cycles))
	}
	// Shortest first.
	if cycles[0].Len() != 2 || cycles[1].Len() != 3 {
		t.Errorf("lengths = %d, %d", cycles[0].Len(), cycles[1].Len())
	}
	labels := cycles[0].Labels(g)
	if len(labels) != 3 || labels[0] != labels[len(labels)-1] {
		t.Errorf("labels = %v", labels)
	}
}

func TestListCyclesLimit(t *testing.T) {
	g := completeDigraph(t, 5)
	cycles, total, err := ListCycles(nil, g, 0, Params{K: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 3 {
		t.Errorf("listed %d cycles with limit 3", len(cycles))
	}
	if total <= 3 {
		t.Errorf("total = %d, expected full count beyond limit", total)
	}
}

func TestListCyclesValidation(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{edge(0, 1)})
	if _, _, err := ListCycles(nil, g, 0, Params{K: 0}, 0); err == nil {
		t.Error("accepted K=0")
	}
	if _, _, err := ListCycles(nil, g, 7, Params{K: 3}, 0); err == nil {
		t.Error("accepted invalid reference")
	}
}

func TestCyclesThrough(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{edge(0, 1), edge(1, 0), edge(1, 2), edge(2, 0)})
	through2, err := CyclesThrough(nil, g, 0, 2, Params{K: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(through2) != 1 || through2[0].Len() != 3 {
		t.Errorf("cycles through node 2: %v", through2)
	}
	if _, err := CyclesThrough(nil, g, 0, 99, Params{K: 3}, 0); err == nil {
		t.Error("accepted invalid node")
	}
	limited, err := CyclesThrough(nil, g, 0, 1, Params{K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Errorf("limit ignored: %d", len(limited))
	}
}

func TestLabelsOfEmptyCycle(t *testing.T) {
	var c Cycle
	g := mustGraph(t, 1, nil)
	if got := c.Labels(g); len(got) != 0 {
		t.Errorf("empty cycle labels = %v", got)
	}
}
