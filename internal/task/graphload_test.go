package task

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// loadHarness is a scheduler whose Load the test holds: every call
// hands the test a channel on calls and returns the graph the test
// sends on it. Its one algorithm, "see", reports the graph a task was
// handed.
type loadHarness struct {
	s     *Scheduler
	store *datastore.Store
	calls chan chan *graph.Graph
	seen  chan *graph.Graph
}

func newLoadHarness(t *testing.T, workers int) *loadHarness {
	t.Helper()
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Buffers sized to the sends: no Load call and no task ever waits
	// for the test to read.
	h := &loadHarness{
		store: store,
		calls: make(chan chan *graph.Graph, 16),
		seen:  make(chan *graph.Graph, 16),
	}
	reg := algo.NewRegistry()
	if err := reg.Register(algo.Func{
		AlgoName: "see",
		AlgoDesc: "reports the graph it ran on",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			h.seen <- g
			return ranking.NewResult("see", g, make([]float64, g.NumNodes()))
		},
	}); err != nil {
		t.Fatal(err)
	}
	h.s, err = NewScheduler(SchedulerConfig{
		Registry: reg,
		Store:    store,
		Workers:  workers,
		Load: func(string) (*graph.Graph, error) {
			reply := make(chan *graph.Graph)
			h.calls <- reply
			return <-reply, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.s.Shutdown(ctx)
	})
	return h
}

func (h *loadHarness) submit(t *testing.T, n int) []string {
	t.Helper()
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Dataset: "demo", Algorithm: "see"}
	}
	_, ids, err := h.s.Submit(specs)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// noFurtherLoad fails the test if a Load call is waiting to be
// answered.
func (h *loadHarness) noFurtherLoad(t *testing.T) {
	t.Helper()
	select {
	case <-h.calls:
		t.Fatal("Load ran again for a dataset already loading or loaded")
	default:
	}
}

// TestConcurrentMissesShareOneLoad: executors that miss the graph
// cache together make one Load call and run on one *Graph.
func TestConcurrentMissesShareOneLoad(t *testing.T) {
	const n = 4
	h := newLoadHarness(t, n)
	before := h.s.graphLoads.Value()
	ids := h.submit(t, n)
	load := <-h.calls
	// The outcome below holds whenever the other executors arrive.
	// Holding the load until each has written its start line — the last
	// thing an executor does before it asks for the graph — is what
	// makes a scheduler that loads per executor fail here instead of
	// passing by luck.
	for _, id := range ids {
		for {
			if log, _ := h.store.ReadLog(id); strings.Contains(log, "executing") {
				break
			}
			runtime.Gosched()
		}
	}
	g := testGraph(t)
	load <- g
	for i := 0; i < n; i++ {
		select {
		case got := <-h.seen:
			if got != g {
				t.Fatalf("task %d ran on graph %p, want the one loaded graph %p", i, got, g)
			}
		case <-h.calls:
			t.Fatal("an executor made its own Load call while one was in flight")
		}
	}
	h.noFurtherLoad(t)
	if got := h.s.graphLoads.Value() - before; got != 1 {
		t.Fatalf("cyclerank_scheduler_graph_loads_total moved by %d, want 1", got)
	}
}

// TestInvalidateDuringLoad: a Load that InvalidateDataset overtook
// read the data the invalidation retires. A task arriving after the
// invalidation starts a fresh load instead of joining it, and the
// overtaken load's graph is never cached — not even when it returns
// after the fresh one has been.
func TestInvalidateDuringLoad(t *testing.T) {
	h := newLoadHarness(t, 2)
	stale, fresh := testGraph(t), testGraph(t)

	h.submit(t, 1)
	overtaken := <-h.calls
	h.s.InvalidateDataset("demo")
	h.submit(t, 1)
	current := <-h.calls // the late task did not join the overtaken load

	current <- fresh
	if got := <-h.seen; got != fresh {
		t.Fatalf("late task ran on %p, want the fresh graph %p", got, fresh)
	}
	overtaken <- stale
	if got := <-h.seen; got != stale {
		t.Fatalf("the task that was waiting on the overtaken load ran on %p, want %p", got, stale)
	}
	h.submit(t, 1)
	if got := <-h.seen; got != fresh {
		t.Fatalf("next task ran on %p: the overtaken load's graph was cached over %p", got, fresh)
	}
	h.noFurtherLoad(t)
	if got := h.s.graphLoads.Value(); got != 2 {
		t.Fatalf("graph loads = %d, want 2", got)
	}
}

// runTask submits one spec against "demo", waits for it and returns
// its result document.
func runTask(t *testing.T, s *Scheduler, spec Spec) Result {
	t.Helper()
	spec.Dataset = "demo"
	qs, ids, err := s.Submit([]Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.WaitQuerySet(ctx, qs); err != nil {
		t.Fatal(err)
	}
	doc, err := s.LoadResult(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestInvalidateRetiresScoreVectors: the graph InvalidateDataset drops
// is handed to the registry, whose memo lets go of every vector
// computed on it.
func TestInvalidateRetiresScoreVectors(t *testing.T) {
	s := newScheduler(t, 1)
	entries := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, s.cfg.Registry.MetricsRegistries()...); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, `cyclerank_artifact_cache_entries{cache="score_vector"}`) {
				return line
			}
		}
		t.Fatalf("no score_vector entries gauge in:\n%s", buf.String())
		return ""
	}
	runTask(t, s, Spec{Algorithm: algo.NameP2DRank, Params: algo.Params{Source: "ref"}})
	if got := entries(); !strings.HasSuffix(got, " 3") {
		t.Fatalf("%s, want 3 (ppr, pcheirank, p2drank)", got)
	}
	s.InvalidateDataset("demo")
	if got := entries(); !strings.HasSuffix(got, " 0") {
		t.Fatalf("after InvalidateDataset: %s, want 0", got)
	}
}

// TestCachedResultsAreMarkedAndDoNotCalibrate: a task answered from
// the score-vector memo says so in its result document — on a
// 2DRank, also when only its legs were — and its microseconds against
// a full-computation estimate never reach the cost calibrator.
func TestCachedResultsAreMarkedAndDoNotCalibrate(t *testing.T) {
	s := newScheduler(t, 1)
	run := func(spec Spec) Result { return runTask(t, s, spec) }
	// One executor: when a task is visible as done, every task before
	// it has left execute, calibration included — and a cached task
	// adds no observation of its own, so the counts below are exact.
	if run(Spec{Algorithm: algo.NamePageRank}).Cached {
		t.Fatal("cold pagerank marked cached")
	}
	if run(Spec{Algorithm: algo.NameCheiRank}).Cached {
		t.Fatal("cold cheirank marked cached")
	}
	if !run(Spec{Algorithm: algo.NamePageRank}).Cached {
		t.Error("repeat pagerank not marked cached")
	}
	rate, learned := s.calibrator.rate(FamilyIterative)
	if got := s.costPerMS.Count(); got != 2 || !learned {
		t.Fatalf("two cold tasks: %d calibration observations (iterative learned: %v), want 2", got, learned)
	}

	if !run(Spec{Algorithm: algo.Name2DRank}).Cached {
		t.Error("2drank over two memoized legs not marked cached")
	}
	batch := run(Spec{Algorithm: algo.NamePageRank, Queries: []SubSpec{{Algorithm: algo.NamePageRank}, {Algorithm: algo.NameCheiRank}}})
	for i, sub := range batch.Queries {
		if !sub.Cached {
			t.Errorf("batch subquery %d not marked cached", i)
		}
	}
	run(Spec{Algorithm: algo.NamePageRank})
	if got := s.costPerMS.Count(); got != 2 {
		t.Errorf("%d calibration observations after four cached tasks, want the 2 of the cold ones", got)
	}
	if after, _ := s.calibrator.rate(FamilyIterative); after != rate {
		t.Errorf("iterative rate moved %g → %g on cache hits", rate, after)
	}
}
