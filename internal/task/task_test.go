package task

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// testGraph is a labeled community graph shared by the task tests.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewLabeledBuilder()
	b.AddLabeledEdge("ref", "a")
	b.AddLabeledEdge("a", "ref")
	b.AddLabeledEdge("a", "b")
	b.AddLabeledEdge("b", "a")
	b.AddLabeledEdge("b", "ref")
	b.AddLabeledEdge("ref", "b")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newScheduler(t *testing.T, workers int) *Scheduler {
	t.Helper()
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	s, err := NewScheduler(SchedulerConfig{
		Registry: algo.NewBuiltinRegistry(),
		Store:    store,
		Workers:  workers,
		Load: func(name string) (*graph.Graph, error) {
			if name != "demo" {
				return nil, fmt.Errorf("no dataset %q", name)
			}
			return g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestNewIDFormat(t *testing.T) {
	pattern := regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$`)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		id, err := NewID()
		if err != nil {
			t.Fatal(err)
		}
		if !pattern.MatchString(id) {
			t.Fatalf("id %q has wrong format", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestStateTerminal(t *testing.T) {
	terminal := []State{StateDone, StateFailed, StateCancelled}
	for _, s := range terminal {
		if !s.Terminal() {
			t.Errorf("%s not terminal", s)
		}
	}
	for _, s := range []State{StatePending, StateRunning} {
		if s.Terminal() {
			t.Errorf("%s terminal", s)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	reg := algo.NewBuiltinRegistry()
	exists := func(d string) bool { return d == "demo" }
	b := NewBuilder(reg, exists)

	if err := b.Add(Spec{Dataset: "", Algorithm: algo.NamePageRank}); err == nil {
		t.Error("accepted empty dataset")
	}
	if err := b.Add(Spec{Dataset: "ghost", Algorithm: algo.NamePageRank}); err == nil {
		t.Error("accepted unknown dataset")
	}
	if err := b.Add(Spec{Dataset: "demo", Algorithm: "nope"}); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if err := b.Add(Spec{Dataset: "demo", Algorithm: algo.NameCycleRank}); err == nil {
		t.Error("accepted cyclerank without source")
	}
	if err := b.Add(Spec{Dataset: "demo", Algorithm: algo.NameCycleRank, Params: algo.Params{Source: "ref"}}); err != nil {
		t.Errorf("rejected valid spec: %v", err)
	}
	if err := b.Add(Spec{Dataset: "demo", Algorithm: algo.NamePageRank}); err != nil {
		t.Errorf("rejected valid global spec: %v", err)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	// Specs returns a copy.
	specs := b.Specs()
	specs[0].Dataset = "mutated"
	if b.Specs()[0].Dataset != "demo" {
		t.Error("Specs leaked internal slice")
	}

	// Parameter sanity is enforced at Add time (algo.Params.Validate),
	// so a bad knob is rejected before scheduling.
	bippr := Spec{Dataset: "demo", Algorithm: algo.NameBiPPRPair,
		Params: algo.Params{Source: "s", Target: "t"}}
	bad := []func(*algo.Params){
		func(p *algo.Params) { p.Workers = -1 },
		func(p *algo.Params) { p.Eps = -1e-6 },
		func(p *algo.Params) { p.Walks = -5 },
		func(p *algo.Params) { p.RMax = -1e-4 },
		func(p *algo.Params) { p.Alpha = 1.5 },
	}
	for i, mutate := range bad {
		s := bippr
		mutate(&s.Params)
		if err := b.Add(s); err == nil {
			t.Errorf("case %d: accepted invalid params %+v", i, s.Params)
		}
	}
	good := bippr
	good.Params.Workers = 8
	good.Params.Eps = 1e-6
	if err := b.Add(good); err != nil {
		t.Errorf("rejected valid workers/eps spec: %v", err)
	}
}

func TestSubmitAndWait(t *testing.T) {
	s := newScheduler(t, 2)
	qs, ids, err := s.Submit([]Spec{
		{Dataset: "demo", Algorithm: algo.NameCycleRank, Params: algo.Params{Source: "ref"}},
		{Dataset: "demo", Algorithm: algo.NamePPR, Params: algo.Params{Source: "ref", Alpha: 0.3}},
		{Dataset: "demo", Algorithm: algo.NamePageRank},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("got %d ids", len(ids))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if tk.State != StateDone {
			t.Errorf("task %s (%s) state = %s, err=%s", tk.ID, tk.Algorithm, tk.State, tk.Error)
		}
		if tk.Duration() < 0 {
			t.Errorf("negative duration")
		}
	}

	// Results persisted and retrievable.
	for _, id := range ids {
		doc, err := s.LoadResult(id)
		if err != nil {
			t.Fatalf("LoadResult(%s): %v", id, err)
		}
		if doc.GraphNodes != 3 {
			t.Errorf("GraphNodes = %d", doc.GraphNodes)
		}
		if len(doc.Top) == 0 {
			t.Errorf("task %s has empty top", id)
		}
	}
}

func TestSubmitEmptySet(t *testing.T) {
	s := newScheduler(t, 1)
	if _, _, err := s.Submit(nil); err == nil {
		t.Error("accepted empty query set")
	}
}

func TestUnknownDatasetFailsTask(t *testing.T) {
	s := newScheduler(t, 1)
	qs, _, err := s.Submit([]Spec{{Dataset: "ghost", Algorithm: algo.NamePageRank}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].State != StateFailed {
		t.Errorf("state = %s, want failed", tasks[0].State)
	}
	if !strings.Contains(tasks[0].Error, "ghost") {
		t.Errorf("error %q does not mention dataset", tasks[0].Error)
	}
}

func TestBadParamsFailTask(t *testing.T) {
	s := newScheduler(t, 1)
	qs, _, err := s.Submit([]Spec{{
		Dataset:   "demo",
		Algorithm: algo.NamePPR,
		Params:    algo.Params{Source: "ref", Alpha: 7},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tasks, _ := s.WaitQuerySet(ctx, qs)
	if tasks[0].State != StateFailed {
		t.Errorf("state = %s, want failed", tasks[0].State)
	}
}

func TestStatusAndQuerySetUnknown(t *testing.T) {
	s := newScheduler(t, 1)
	if _, err := s.Status("nope"); err == nil {
		t.Error("unknown task status resolved")
	}
	if _, err := s.QuerySet("nope"); err == nil {
		t.Error("unknown query set resolved")
	}
	if err := s.Cancel("nope"); err == nil {
		t.Error("cancelled unknown task")
	}
}

func TestCancelPendingTask(t *testing.T) {
	// One worker busy with a long task; second task sits pending and
	// is cancelled before execution.
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := algo.NewRegistry()
	block := make(chan struct{})
	reg.Register(algo.Func{
		AlgoName: "block",
		AlgoDesc: "blocks until released",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return ranking.NewResult("block", g, make([]float64, g.NumNodes()))
		},
	})
	g := testGraph(t)
	s, err := NewScheduler(SchedulerConfig{
		Registry: reg,
		Store:    store,
		Workers:  1,
		Load:     func(string) (*graph.Graph, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	_, ids, err := s.Submit([]Spec{
		{Dataset: "demo", Algorithm: "block"},
		{Dataset: "demo", Algorithm: "block"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first task to start.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, _ := s.Status(ids[0])
		if st.State == StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Cancel(ids[1]); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(ids[1])
	if st.State != StateCancelled {
		t.Errorf("pending task state = %s, want cancelled", st.State)
	}
	// Cancelling a terminal task is a no-op.
	if err := s.Cancel(ids[1]); err != nil {
		t.Errorf("re-cancel errored: %v", err)
	}
}

func TestCancelRunningTask(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := algo.NewRegistry()
	started := make(chan struct{}, 1)
	reg.Register(algo.Func{
		AlgoName: "hang",
		AlgoDesc: "waits for cancellation",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	g := testGraph(t)
	s, err := NewScheduler(SchedulerConfig{
		Registry: reg,
		Store:    store,
		Workers:  1,
		Load:     func(string) (*graph.Graph, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	qs, ids, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "hang"}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].State != StateCancelled {
		t.Errorf("state = %s, want cancelled", tasks[0].State)
	}
}

func TestTaskTimeout(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := algo.NewRegistry()
	reg.Register(algo.Func{
		AlgoName: "slow",
		AlgoDesc: "sleeps past the timeout",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			select {
			case <-time.After(5 * time.Second):
				return ranking.NewResult("slow", g, make([]float64, g.NumNodes()))
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	g := testGraph(t)
	s, err := NewScheduler(SchedulerConfig{
		Registry:    reg,
		Store:       store,
		Workers:     1,
		TaskTimeout: 30 * time.Millisecond,
		Load:        func(string) (*graph.Graph, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	qs, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "slow"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].State != StateFailed {
		t.Fatalf("state = %s, want failed", tasks[0].State)
	}
	if !strings.Contains(tasks[0].Error, "timeout") {
		t.Errorf("error %q does not mention the timeout", tasks[0].Error)
	}
}

func TestTaskWithinTimeoutSucceeds(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	s, err := NewScheduler(SchedulerConfig{
		Registry:    algo.NewBuiltinRegistry(),
		Store:       store,
		Workers:     1,
		TaskTimeout: 10 * time.Second,
		Load:        func(string) (*graph.Graph, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	qs, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: algo.NamePageRank}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].State != StateDone {
		t.Errorf("state = %s: %s", tasks[0].State, tasks[0].Error)
	}
}

func TestTasksNewestFirst(t *testing.T) {
	s := newScheduler(t, 2)
	_, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: algo.NamePageRank}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	_, ids2, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: algo.NameCheiRank}})
	if err != nil {
		t.Fatal(err)
	}
	all := s.Tasks()
	if len(all) != 2 {
		t.Fatalf("Tasks len = %d", len(all))
	}
	if all[0].ID != ids2[0] {
		t.Error("Tasks not newest-first")
	}
}

func TestGraphCacheAndInvalidate(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	g := testGraph(t)
	s, err := NewScheduler(SchedulerConfig{
		Registry: algo.NewBuiltinRegistry(),
		Store:    store,
		Workers:  1,
		Load: func(string) (*graph.Graph, error) {
			loads++
			return g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		qs, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: algo.NamePageRank}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitQuerySet(ctx, qs); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 1 {
		t.Errorf("dataset loaded %d times, want 1 (cached)", loads)
	}
	s.ReplaceDataset("demo", nil)
	qs, _, _ := s.Submit([]Spec{{Dataset: "demo", Algorithm: algo.NamePageRank}})
	if _, err := s.WaitQuerySet(ctx, qs); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Errorf("after invalidate: %d loads, want 2", loads)
	}
}

func TestSchedulerConfigValidation(t *testing.T) {
	store, _ := datastore.Open(t.TempDir())
	load := func(string) (*graph.Graph, error) { return nil, nil }
	cases := []SchedulerConfig{
		{Load: load, Store: store},
		{Registry: algo.NewBuiltinRegistry(), Store: store},
		{Registry: algo.NewBuiltinRegistry(), Load: load},
	}
	for i, cfg := range cases {
		if _, err := NewScheduler(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestExecutionLogWritten(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	s, err := NewScheduler(SchedulerConfig{
		Registry: algo.NewBuiltinRegistry(),
		Store:    store,
		Workers:  1,
		Load:     func(string) (*graph.Graph, error) { return g, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	qs, ids, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: algo.NamePageRank}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.WaitQuerySet(ctx, qs); err != nil {
		t.Fatal(err)
	}
	log, err := store.ReadLog(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log, "executing pagerank") || !strings.Contains(log, "done in") {
		t.Errorf("log missing entries: %q", log)
	}
}
