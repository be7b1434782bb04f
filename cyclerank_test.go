package cyclerank_test

import (
	"context"
	"path/filepath"
	"testing"

	cyclerank "github.com/cyclerank/cyclerank-go"
)

// TestFacadeEndToEnd exercises the full public API surface the README
// advertises: build, persist, reload, rank, compare.
func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()

	b := cyclerank.NewLabeledBuilder()
	mutual := func(x, y string) {
		b.AddLabeledEdge(x, y)
		b.AddLabeledEdge(y, x)
	}
	mutual("a", "b")
	mutual("b", "c")
	mutual("c", "a")
	b.AddLabeledEdge("a", "hub")
	b.AddLabeledEdge("b", "hub")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if got := cyclerank.ComputeStats(g); got.Nodes != 4 {
		t.Errorf("stats nodes = %d", got.Nodes)
	}

	// File round-trip through the façade.
	path := filepath.Join(t.TempDir(), "g.net")
	if err := cyclerank.WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := cyclerank.ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip edges %d != %d", g2.NumEdges(), g.NumEdges())
	}

	ref, ok := g.NodeByLabel("a")
	if !ok {
		t.Fatal("label lookup failed")
	}
	cr, err := cyclerank.Compute(ctx, g, ref, cyclerank.Params{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	hub, _ := g.NodeByLabel("hub")
	if cr.Score(hub) != 0 {
		t.Error("facade CycleRank scored the hub")
	}

	ppr, err := cyclerank.PersonalizedPageRank(ctx, g, cyclerank.PageRankParams{
		Alpha: 0.85, Seeds: []cyclerank.NodeID{ref},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ppr.Score(hub) == 0 {
		t.Error("facade PPR did not leak to the hub")
	}

	if _, err := cyclerank.CountCycles(ctx, g, ref, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cyclerank.ScoringByName(cyclerank.ScoringLinear); err != nil {
		t.Fatal(err)
	}
	if _, err := cyclerank.PageRank(ctx, g, cyclerank.PageRankParams{Alpha: 0.85}); err != nil {
		t.Fatal(err)
	}
	if _, err := cyclerank.CheiRank(ctx, g, cyclerank.PageRankParams{Alpha: 0.85}); err != nil {
		t.Fatal(err)
	}
	if _, err := cyclerank.TwoDRank(ctx, g, cyclerank.PageRankParams{Alpha: 0.85}); err != nil {
		t.Fatal(err)
	}

	ag, err := cyclerank.CompareAt(cr, ppr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Jaccard < 0 || ag.Jaccard > 1 {
		t.Errorf("agreement out of bounds: %+v", ag)
	}
	if j := cyclerank.JaccardAtK(cr, ppr, 3); j < 0 || j > 1 {
		t.Errorf("jaccard out of bounds: %v", j)
	}
	if _, err := cyclerank.RBO(cr, ppr, 3, 0.9); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDiff(t *testing.T) {
	ctx := context.Background()
	b := cyclerank.NewLabeledBuilder()
	for _, e := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}, {"c", "a"}} {
		b.AddLabeledEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.NodeByLabel("a")
	global, err := cyclerank.PageRank(ctx, g, cyclerank.PageRankParams{Alpha: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	personal, err := cyclerank.PersonalizedPageRank(ctx, g, cyclerank.PageRankParams{
		Alpha: 0.85, Seeds: []cyclerank.NodeID{a},
	})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := cyclerank.DiffTopK(global, personal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diff.K != 3 {
		t.Errorf("diff K = %d", diff.K)
	}
}

func TestFacadeSubgraphsAndCycles(t *testing.T) {
	ctx := context.Background()
	b := cyclerank.NewLabeledBuilder()
	b.AddLabeledEdge("x", "y")
	b.AddLabeledEdge("y", "x")
	b.AddLabeledEdge("y", "z")
	b.AddLabeledEdge("z", "y")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := g.NodeByLabel("x")
	z, _ := g.NodeByLabel("z")

	ego, origOf, err := cyclerank.EgoNet(g, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ego.NumNodes() != 2 || origOf[0] != x {
		t.Errorf("ego N=%d origOf=%v", ego.NumNodes(), origOf)
	}
	sub, _, err := cyclerank.InducedSubgraph(g, []cyclerank.NodeID{x, z})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 0 { // x and z are not directly connected
		t.Errorf("sub M=%d", sub.NumEdges())
	}

	cycles, total, err := cyclerank.ListCycles(ctx, g, x, cyclerank.Params{K: 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || len(cycles) == 0 {
		t.Error("no cycles listed")
	}
	y, _ := g.NodeByLabel("y")
	through, err := cyclerank.CyclesThrough(ctx, g, x, y, cyclerank.Params{K: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(through) == 0 {
		t.Error("no cycles through y")
	}
	// x and z share no *elementary* cycle (any closed walk would
	// revisit y), exactly the distinction CycleRank draws.
	none, err := cyclerank.CyclesThrough(ctx, g, x, z, cyclerank.Params{K: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("unexpected cycles through z: %v", none)
	}
}

func TestFacadeRegistryAndCatalog(t *testing.T) {
	reg := cyclerank.NewRegistry()
	if len(reg.Names()) < 7 {
		t.Errorf("registry has %d algorithms", len(reg.Names()))
	}
	catalog, err := cyclerank.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if catalog.Len() != 50 {
		t.Errorf("catalog has %d datasets", catalog.Len())
	}
	ds, err := catalog.Get("enwiki-2013")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Load()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cyclerank.RunAlgorithm(context.Background(), reg, cyclerank.AlgoCycleRank, g,
		cyclerank.AlgoParams{Source: "Freddie Mercury", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top(5)) == 0 {
		t.Error("no results from catalog dataset")
	}
}

func TestFacadePlatform(t *testing.T) {
	store, err := cyclerank.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := cyclerank.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cyclerank.NewServer(cyclerank.ServerConfig{
		Registry: cyclerank.NewRegistry(),
		Catalog:  catalog,
		Store:    store,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := srv.Scheduler()
	qs, _, err := sched.Submit([]cyclerank.TaskSpec{{
		Dataset:   "enwiki-2003",
		Algorithm: cyclerank.AlgoCycleRank,
		Params:    cyclerank.AlgoParams{Source: "Freddie Mercury", K: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30_000_000_000)
	defer cancel()
	tasks, err := sched.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].State != "done" {
		t.Errorf("task state %s: %s", tasks[0].State, tasks[0].Error)
	}
	if err := sched.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
