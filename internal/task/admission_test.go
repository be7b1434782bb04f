package task

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// TestAdmissionShedReasonsAndBatchImmunity: with the interactive
// executor pinned and its queue full, interactive submissions are shed
// while batch-class work is still admitted and completes — both the
// multi-query shape and an explicitly classed spec.
func TestAdmissionShedReasonsAndBatchImmunity(t *testing.T) {
	t.Run("batch-immune", func(t *testing.T) {
		h := newQueueHarness(t)
		h.pin(t, ClassInteractive)
		for i := 0; i < cap(h.s.queue); i++ {
			if _, _, err := h.s.Submit([]Spec{{Dataset: "demo", Algorithm: "noop"}}); err != nil {
				t.Fatalf("filling the interactive queue, task %d: %v", i, err)
			}
		}
		var shed *ShedError
		if _, _, err := h.s.Submit([]Spec{{Dataset: "demo", Algorithm: "noop"}}); !errors.As(err, &shed) || shed.Class != ClassInteractive {
			t.Fatalf("err = %v, want an interactive *ShedError", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, spec := range []Spec{
			{Dataset: "demo", Algorithm: "noop", Queries: []SubSpec{{Algorithm: "noop"}, {Algorithm: "noop"}}},
			{Dataset: "demo", Algorithm: "noop", Class: ClassBatch},
		} {
			qs, _, err := h.s.Submit([]Spec{spec})
			if err != nil {
				t.Fatalf("batch submission shed: %v", err)
			}
			tasks, err := h.s.WaitQuerySet(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			if tasks[0].State != StateDone {
				t.Fatalf("batch state %s: %s", tasks[0].State, tasks[0].Error)
			}
		}
		if got := h.s.AdmissionStats().AdmittedBatch; got != 2 {
			t.Errorf("admitted_batch = %d, want 2", got)
		}
	})
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
