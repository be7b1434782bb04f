package task

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// blockingScheduler builds a scheduler whose "block" algorithm holds
// its executor until the returned gate closes, plus an instant "noop"
// algorithm — the fixture for pinning tasks in flight deterministically.
func blockingScheduler(t *testing.T, cfg SchedulerConfig) (*Scheduler, chan struct{}, *datastore.Store) {
	t.Helper()
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reg := algo.NewRegistry()
	reg.Register(algo.Func{
		AlgoName: "block",
		AlgoDesc: "blocks until the test releases it",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return ranking.NewResult("block", g, make([]float64, g.NumNodes()))
		},
	})
	reg.Register(algo.Func{
		AlgoName: "noop",
		AlgoDesc: "returns immediately",
		RunFunc: func(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
			return ranking.NewResult("noop", g, make([]float64, g.NumNodes()))
		},
	})
	g := testGraph(t)
	cfg.Registry = reg
	cfg.Store = store
	cfg.Load = func(name string) (*graph.Graph, error) {
		if name != "demo" {
			return nil, fmt.Errorf("no dataset %q", name)
		}
		return g, nil
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, gate, store
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionConcurrentSubmitReject races a flood of submissions
// against a 1-slot budget: exactly the task holding the gate is
// admitted, every concurrent submission sheds with reason "slots", and
// after the drain the budget returns to exactly zero. Run under -race
// this also locks the admission bookkeeping's thread safety.
func TestAdmissionConcurrentSubmitReject(t *testing.T) {
	s, gate, _ := blockingScheduler(t, SchedulerConfig{
		Workers:   2,
		Admission: AdmissionConfig{InteractiveSlots: 1, RetryAfter: 3 * time.Second},
	})

	// The blocker reserves the only slot at Submit time — no waiting
	// needed before the flood.
	qs, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "block"}})
	if err != nil {
		t.Fatal(err)
	}

	const flood = 16
	var wg sync.WaitGroup
	errs := make([]error, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Submit([]Spec{{Dataset: "demo", Algorithm: "block"}})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		var shed *ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("submission %d: err = %v, want *ShedError", i, err)
		}
		if shed.Reason != "slots" {
			t.Errorf("submission %d: reason %q, want slots", i, shed.Reason)
		}
		if shed.RetryAfter != 3*time.Second {
			t.Errorf("submission %d: retry after %s, want 3s", i, shed.RetryAfter)
		}
	}

	snap := s.AdmissionStats()
	if snap.Inflight != 1 || snap.AdmittedInteractive != 1 {
		t.Errorf("inflight %d admitted %d, want 1/1", snap.Inflight, snap.AdmittedInteractive)
	}
	if snap.ShedSlots != flood {
		t.Errorf("shed_slots = %d, want %d", snap.ShedSlots, flood)
	}
	if snap.BacklogUnits <= 0 {
		t.Errorf("backlog %g while a task is in flight", snap.BacklogUnits)
	}

	// Drain: the released blocker must return its reservation exactly.
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.WaitQuerySet(ctx, qs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "budget drain", func() bool { return s.AdmissionStats().Inflight == 0 })
	snap = s.AdmissionStats()
	if snap.BacklogUnits != 0 || snap.PendingInteractive != 0 {
		t.Errorf("after drain: backlog %g pending %d, want zero", snap.BacklogUnits, snap.PendingInteractive)
	}

	// Capacity is reusable after the drain.
	qs, _, err = s.Submit([]Spec{{Dataset: "demo", Algorithm: "noop"}})
	if err != nil {
		t.Fatalf("post-drain submission shed: %v", err)
	}
	if _, err := s.WaitQuerySet(ctx, qs); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionShedReasonsAndBatchImmunity exercises the queue-depth
// and backlog limits and the batch tier's immunity: batch-class work
// is admitted and completes while the interactive tier is saturated.
func TestAdmissionShedReasonsAndBatchImmunity(t *testing.T) {
	t.Run("queue", func(t *testing.T) {
		s, _, _ := blockingScheduler(t, SchedulerConfig{
			Workers:   1,
			Admission: AdmissionConfig{MaxPendingInteractive: 1},
		})
		_, ids, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "block"}})
		if err != nil {
			t.Fatal(err)
		}
		// Once the blocker is RUNNING it no longer counts against the
		// pending cap; the next submission fills the queue slot.
		waitFor(t, "blocker running", func() bool {
			st, _ := s.Status(ids[0])
			return st.State == StateRunning
		})
		if _, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "block"}}); err != nil {
			t.Fatalf("queue-filling submission shed: %v", err)
		}
		var shed *ShedError
		if _, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "block"}}); !errors.As(err, &shed) || shed.Reason != "queue" {
			t.Fatalf("err = %v, want ShedError reason queue", err)
		}
		if got := s.AdmissionStats().ShedQueue; got != 1 {
			t.Errorf("shed_queue = %d, want 1", got)
		}
	})

	t.Run("backlog", func(t *testing.T) {
		// Submit prices from the dataset's stats as of that moment: cold
		// until an executor first loads the graph, warm after. Load it
		// up front so both submissions are priced from the same warm
		// stats whenever the first one's executor starts.
		g := testGraph(t)
		warm := CostStats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
		spec := Spec{Dataset: "demo", Algorithm: "block"}
		unit := EstimateCost(spec, warm)
		s, _, _ := blockingScheduler(t, SchedulerConfig{
			Workers:   2,
			Admission: AdmissionConfig{MaxBacklogUnits: 1.5 * unit},
		})
		if _, err := s.LoadGraph("demo"); err != nil {
			t.Fatal(err)
		}
		if got := s.CostStats("demo"); got != warm {
			t.Fatalf("cost stats after load = %+v, want %+v", got, warm)
		}
		if _, _, err := s.Submit([]Spec{spec}); err != nil {
			t.Fatal(err)
		}
		var shed *ShedError
		if _, _, err := s.Submit([]Spec{spec}); !errors.As(err, &shed) || shed.Reason != "backlog" {
			t.Fatalf("err = %v, want ShedError reason backlog", err)
		}
		if got := s.AdmissionStats().ShedBacklog; got != 1 {
			t.Errorf("shed_backlog = %d, want 1", got)
		}
	})

	t.Run("batch-immune", func(t *testing.T) {
		s, _, _ := blockingScheduler(t, SchedulerConfig{
			Workers:   1,
			Admission: AdmissionConfig{InteractiveSlots: 1},
		})
		if _, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "block"}}); err != nil {
			t.Fatal(err)
		}
		// Interactive tier saturated; batch work must flow regardless —
		// both the multi-query shape and an explicitly classed spec.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		qs, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "noop",
			Queries: []SubSpec{{Algorithm: "noop"}, {Algorithm: "noop"}}}})
		if err != nil {
			t.Fatalf("batch submission shed: %v", err)
		}
		tasks, err := s.WaitQuerySet(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		if tasks[0].State != StateDone {
			t.Fatalf("batch state %s: %s", tasks[0].State, tasks[0].Error)
		}
		qs, _, err = s.Submit([]Spec{{Dataset: "demo", Algorithm: "noop", Class: ClassBatch}})
		if err != nil {
			t.Fatalf("explicit batch-class submission shed: %v", err)
		}
		if tasks, err = s.WaitQuerySet(ctx, qs); err != nil || tasks[0].State != StateDone {
			t.Fatalf("batch-class task: %v, state %s", err, tasks[0].State)
		}
		if got := s.AdmissionStats().AdmittedBatch; got != 2 {
			t.Errorf("admitted_batch = %d, want 2", got)
		}
	})
}

// TestAdmissionSurvivesInfinityInjection injects a raw +Inf
// reservation past the stamp-time clamp, straight into tryAdmit: the
// guard must price it at the ceiling so release leaves the backlog at
// exactly zero (not Inf − Inf = NaN) and backlog shedding keeps
// working afterwards.
func TestAdmissionSurvivesInfinityInjection(t *testing.T) {
	s, _, _ := blockingScheduler(t, SchedulerConfig{
		Workers:   1,
		Admission: AdmissionConfig{MaxBacklogUnits: 1.5 * MaxCostUnits},
	})
	if err := s.tryAdmit(map[string]float64{"inf": math.Inf(1)}); err != nil {
		t.Fatalf("ceiling-priced reservation refused: %v", err)
	}
	snap := s.AdmissionStats()
	if math.IsInf(snap.BacklogUnits, 0) || math.IsNaN(snap.BacklogUnits) {
		t.Fatalf("raw Inf entered the backlog: %v", snap.BacklogUnits)
	}
	// A second ceiling-priced task overflows the cap — shedding works
	// WITH the injected reservation still in flight.
	var shed *ShedError
	if err := s.tryAdmit(map[string]float64{"b": MaxCostUnits}); !errors.As(err, &shed) || shed.Reason != "backlog" {
		t.Fatalf("overflow not shed: %v", err)
	}
	s.admitRelease("inf")
	if snap = s.AdmissionStats(); snap.BacklogUnits != 0 {
		t.Errorf("backlog after release %v, want exactly 0 (NaN disables shedding)", snap.BacklogUnits)
	}
	// And the tier still sheds on backlog afterwards.
	if err := s.tryAdmit(map[string]float64{"c": 2 * MaxCostUnits}); err != nil {
		t.Fatalf("post-drain admission broken: %v", err)
	}
	if err := s.tryAdmit(map[string]float64{"d": MaxCostUnits}); !errors.As(err, &shed) || shed.Reason != "backlog" {
		t.Errorf("backlog shedding disabled after Inf injection: %v", err)
	}
}

// TestQueueFullReleasesReservation overflows the executor queue
// mid-query-set: the failed tasks' admission reservations must be
// released, and after the drain backlog_units and pending_interactive
// return to exactly zero. Runs under -race via make test-race.
func TestQueueFullReleasesReservation(t *testing.T) {
	s, gate, _ := blockingScheduler(t, SchedulerConfig{
		Workers:    1,
		QueueDepth: 1,
		Admission:  AdmissionConfig{InteractiveSlots: 16},
	})
	// Blocker occupies the only worker...
	qs1, ids, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "block"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool {
		st, _ := s.Status(ids[0])
		return st.State == StateRunning
	})
	// ...a filler occupies the single queue slot...
	qs2, _, err := s.Submit([]Spec{{Dataset: "demo", Algorithm: "noop"}})
	if err != nil {
		t.Fatal(err)
	}
	// ...so a 2-task query set is admitted (16 slots are free) but both
	// enqueues overflow and fail the tasks.
	qs3, ids3, err := s.Submit([]Spec{
		{Dataset: "demo", Algorithm: "noop"},
		{Dataset: "demo", Algorithm: "noop"},
	})
	if err != nil {
		t.Fatalf("overflow set rejected at admission, want queue-full task failures: %v", err)
	}
	for _, id := range ids3 {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed {
			t.Errorf("overflowed task %s state %s, want failed", id, st.State)
		}
	}
	// The overflowed tasks' reservations are already gone: only the
	// blocker (started) and the filler (pending) remain.
	snap := s.AdmissionStats()
	if snap.Inflight != 2 || snap.PendingInteractive != 1 {
		t.Errorf("inflight %d pending %d after overflow, want 2/1", snap.Inflight, snap.PendingInteractive)
	}

	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, qs := range []string{qs1, qs2, qs3} {
		if _, err := s.WaitQuerySet(ctx, qs); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "admission drain", func() bool { return s.AdmissionStats().Inflight == 0 })
	snap = s.AdmissionStats()
	if snap.BacklogUnits != 0 || snap.PendingInteractive != 0 {
		t.Errorf("after drain: backlog_units=%v pending=%d, want zeros",
			snap.BacklogUnits, snap.PendingInteractive)
	}
}

// TestDeadlineCancelsMidWalk lands a per-request deadline inside the
// forward-walk phase of a bidirectional query: the task must FAIL (not
// cancel) with an error naming the walks phase, leave no partial
// result artifact, and count in deadline_exceeded.
func TestDeadlineCancelsMidWalk(t *testing.T) {
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

	// The push on a 3-node graph is instantaneous; tens of millions of
	// walks are seconds of work — the 50ms deadline lands mid-walk.
	qs, ids, err := s.Submit([]Spec{{
		Dataset: "demo", Algorithm: "bippr-pair",
		Params:    algo.Params{Source: "ref", Target: "b", Walks: 30_000_000},
		TimeoutMS: 50,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	tk := tasks[0]
	if tk.State != StateFailed {
		t.Fatalf("state = %s, want failed (err %q)", tk.State, tk.Error)
	}
	if !strings.Contains(tk.Error, "timeout") || !strings.Contains(tk.Error, "walks cancelled") {
		t.Errorf("error %q does not name the timeout and the walks phase", tk.Error)
	}
	if store.HasResult(ids[0]) {
		t.Error("deadline-failed task persisted a partial result artifact")
	}
	if got := s.AdmissionStats().DeadlineExceeded; got != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", got)
	}
}

// TestDeadlineCancelsMidPush lands the deadline inside the reverse
// push: a dense graph with a vanishing residual threshold makes the
// push phase the long pole, and the error must name it.
func TestDeadlineCancelsMidPush(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, err := datasets.CompleteDigraph(600)
	if err != nil {
		t.Fatal(err)
	}
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

	qs, ids, err := s.Submit([]Spec{{
		Dataset: "dense", Algorithm: "ppr-target",
		Params:    algo.Params{Target: "0", RMax: 1e-12},
		TimeoutMS: 10,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	tk := tasks[0]
	if tk.State != StateFailed {
		t.Fatalf("state = %s, want failed (err %q)", tk.State, tk.Error)
	}
	if !strings.Contains(tk.Error, "timeout") || !strings.Contains(tk.Error, "reverse push cancelled") {
		t.Errorf("error %q does not name the timeout and the push phase", tk.Error)
	}
	if store.HasResult(ids[0]) {
		t.Error("deadline-failed task persisted a partial result artifact")
	}
}

// TestBatchDeadlineIsolatesSubqueries gives ONE subquery of a batch a
// tight deadline: that subquery alone fails (with a phase-naming
// error), its sibling completes, and the batch finishes done.
func TestBatchDeadlineIsolatesSubqueries(t *testing.T) {
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

	qs, ids, err := s.Submit([]Spec{{
		Dataset: "demo", Algorithm: "bippr-pair", Parallelism: 1,
		Queries: []SubSpec{
			{Algorithm: "bippr-pair", Params: algo.Params{Source: "ref", Target: "b", Walks: 30_000_000}, TimeoutMS: 40},
			{Algorithm: "bippr-pair", Params: algo.Params{Source: "ref", Target: "a", Walks: 200}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks, err := s.WaitQuerySet(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	tk := tasks[0]
	if tk.State != StateDone {
		t.Fatalf("batch state = %s, want done (err %q)", tk.State, tk.Error)
	}
	if len(tk.QueryStates) != 2 || tk.QueryStates[0] != StateFailed || tk.QueryStates[1] != StateDone {
		t.Fatalf("query states %v, want [failed done]", tk.QueryStates)
	}

	var doc Result
	if err := store.LoadResult(ids[0], &doc); err != nil {
		t.Fatal(err)
	}
	sub := doc.Queries[0]
	if !strings.Contains(sub.Error, "timeout") || !strings.Contains(sub.Error, "walks cancelled") {
		t.Errorf("subquery error %q does not name the timeout and the walks phase", sub.Error)
	}
	if doc.Queries[1].State != StateDone || len(doc.Queries[1].Top) == 0 {
		t.Errorf("sibling subquery %+v did not complete with results", doc.Queries[1])
	}
	if got := s.AdmissionStats().DeadlineExceeded; got != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", got)
	}
}

// TestClassPresetsAndRouting locks the class semantics: explicit
// interactive fills presets into zero fields only, explicit batch and
// classless specs keep parameters untouched, and the deadline default
// applies only to explicit interactive.
func TestClassPresetsAndRouting(t *testing.T) {
	if c, err := ParseClass("interactive"); err != nil || c != ClassInteractive {
		t.Errorf("ParseClass(interactive) = %v, %v", c, err)
	}
	if c, err := ParseClass(""); err != nil || c != Class("") {
		t.Errorf("ParseClass(empty) = %v, %v", c, err)
	}
	if _, err := ParseClass("realtime"); err == nil {
		t.Error("ParseClass accepted unknown class")
	}

	p := ClassInteractive.ApplyParams(algo.Params{Source: "s", Target: "t"})
	if p.RMax != InteractiveRMax || p.Walks != InteractiveWalks {
		t.Errorf("interactive presets not applied: %+v", p)
	}
	// Explicit fields and eps-mode walk derivation stay untouched.
	p = ClassInteractive.ApplyParams(algo.Params{RMax: 1e-5, Eps: 1e-6})
	if p.RMax != 1e-5 || p.Walks != 0 {
		t.Errorf("interactive presets clobbered explicit params: %+v", p)
	}
	p = ClassBatch.ApplyParams(algo.Params{})
	if p.RMax != 0 || p.Walks != 0 {
		t.Errorf("batch class mutated params: %+v", p)
	}
	p = Class("").ApplyParams(algo.Params{})
	if p.RMax != 0 || p.Walks != 0 {
		t.Errorf("classless spec mutated params: %+v", p)
	}

	if d := ClassInteractive.DefaultTimeout(); d != InteractiveTimeout {
		t.Errorf("interactive default timeout %s", d)
	}
	if d := ClassBatch.DefaultTimeout(); d != 0 {
		t.Errorf("batch default timeout %s, want 0", d)
	}

	// Shape-default routing.
	if c := resolveClass(Spec{Dataset: "d", Algorithm: "pagerank"}); c != ClassInteractive {
		t.Errorf("plain spec resolved %q", c)
	}
	if c := resolveClass(Spec{Dataset: "d", Queries: []SubSpec{{}}}); c != ClassBatch {
		t.Errorf("batch spec resolved %q", c)
	}
	if c := resolveClass(Spec{Dataset: "d", Class: ClassBatch}); c != ClassBatch {
		t.Errorf("explicit class resolved %q", c)
	}

	// applyClassPresets: classless passes through bit-identical.
	in := Spec{Dataset: "d", Algorithm: "bippr-pair", Params: algo.Params{Source: "s"}}
	if out := applyClassPresets(in); out.Params != in.Params || out.TimeoutMS != 0 {
		t.Errorf("classless spec mutated: %+v", out)
	}
	classed := applyClassPresets(Spec{Dataset: "d", Algorithm: "bippr-pair", Class: ClassInteractive,
		Queries: []SubSpec{{Params: algo.Params{Source: "s", Target: "t"}}}})
	if classed.TimeoutMS != InteractiveTimeout.Milliseconds() {
		t.Errorf("interactive default deadline not applied: %d", classed.TimeoutMS)
	}
	if classed.Queries[0].Params.RMax != InteractiveRMax {
		t.Errorf("presets not applied to subqueries: %+v", classed.Queries[0].Params)
	}
}
