// Package task implements the platform's execution pipeline: the Task
// Builder, Scheduler, Executor pool and Status components from the
// demo's architecture (Figure 1).
//
// A task is the triple (dataset, algorithm, parameters) — or a
// *batch*: many (algorithm, parameters) queries against one dataset,
// validated individually but scheduled, executed and reported as a
// single unit that loads the graph once (see Spec.Queries). Users
// group tasks into query sets; each query set receives a unique
// comparison id that serves as a permalink for retrieving all of its
// results. The scheduler fetches datasets (with caching), off-loads
// computation to a pool of executor goroutines, and persists results
// and logs to the datastore, from which the status component answers
// polls.
//
// Invariants:
//
//   - Validation is front-loaded: Builder.Add rejects unknown
//     datasets/algorithms, missing source/target nodes, and
//     out-of-range parameters (algo.Params.Validate) before
//     submission, so a scheduled task can only fail on data-dependent
//     errors (e.g. a label missing from the graph).
//   - A task's state only moves forward: pending → running → one of
//     done/failed/cancelled; terminal states never change.
//   - The scheduler hands out exactly one immutable *graph.Graph per
//     dataset name until ReplaceDataset: loadGraph is single-flight,
//     so executors that miss together still receive one pointer.
//     Downstream caches (bippr's target-index LRU, the registry's
//     score-vector memo) key on that pointer; ReplaceDataset after an
//     upload or delete drops the memo's vectors for the old graph and
//     is what makes the rest of the stale derived state age out.
//   - Results and logs are persisted before a task is marked done, so
//     a status poll that observes "done" can always read the result.
package task

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// State is a task's lifecycle state.
type State string

// Task lifecycle states.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// SubSpec is one query of a batch task: an algorithm (empty inherits
// the batch's default) plus its parameters.
type SubSpec struct {
	Algorithm string      `json:"algorithm,omitempty"`
	Params    algo.Params `json:"params"`
	// TimeoutMS is an optional per-subquery deadline in milliseconds,
	// nested inside the batch's own deadline. A subquery that exceeds it
	// fails alone — siblings keep running and the batch still reports.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Spec is a user-submitted task description: the (dataset, algorithm,
// parameters) triple — or, when Queries is non-empty, a *batch*: many
// queries against one dataset executed as a single scheduled unit
// that loads the graph once and shares every downstream cache (the
// scheduler's graph cache, bippr's target-index store, its walk
// worker pool). For a batch, the top-level Algorithm is the default
// each SubSpec may omit, and the top-level Params must be zero — the
// builder rejects a batch that sets them, because params are
// per-query and silently ignoring them would run every query with
// defaults the submitter did not choose.
type Spec struct {
	Dataset   string      `json:"dataset"`
	Algorithm string      `json:"algorithm"`
	Params    algo.Params `json:"params"`
	Queries   []SubSpec   `json:"queries,omitempty"`
	// Parallelism bounds the intra-batch worker pool: how many of the
	// batch's independent subqueries may run concurrently on the
	// executor that owns the batch. 0 selects GOMAXPROCS; every value
	// is capped by GOMAXPROCS and the batch size; 1 forces sequential
	// execution. Results are bit-identical for every value — each
	// subquery derives its walk seeds from (seed, source, chunk), so
	// completion order cannot change any answer. Only meaningful on
	// batch specs; the builder rejects it elsewhere.
	Parallelism int `json:"parallelism,omitempty"`
	// Class selects the serving tier (see Class). Empty keeps the shape
	// default: plain specs route interactive, batches route batch, and
	// no parameter presets are applied.
	Class Class `json:"class,omitempty"`
	// TimeoutMS is the task's deadline in milliseconds, counted from
	// execution start. The effective deadline is the minimum of this and
	// the scheduler's TaskTimeout; zero inherits the scheduler's alone.
	// The deadline propagates into the algorithm via context, so a task
	// is cancelled mid-push or mid-walk, keeps the partial phase trace,
	// and leaves no partial artifacts on disk.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// IsBatch reports whether the spec is a batch submission.
func (s Spec) IsBatch() bool { return len(s.Queries) > 0 }

// MaxBatchQueries caps the subqueries of one batch task, bounding the
// work a single scheduled unit can pin on an executor.
const MaxBatchQueries = 256

// Task is a scheduled Spec with execution metadata. Batch tasks
// additionally carry per-subquery progress: QueryStates[i] tracks
// Queries[i] through pending → running → done/failed/cancelled, and
// QueriesDone counts terminal subqueries — so a status poll shows how
// far a running batch has advanced.
type Task struct {
	ID        string      `json:"id"`
	QuerySet  string      `json:"query_set"`
	Dataset   string      `json:"dataset"`
	Algorithm string      `json:"algorithm"`
	Params    algo.Params `json:"params"`
	State     State       `json:"state"`
	Error     string      `json:"error,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   time.Time   `json:"started,omitempty"`
	Finished  time.Time   `json:"finished,omitempty"`

	// WaitMS is how long the task sat queued (submitted → started);
	// RunMS how long it executed (started → finished). Stamped at the
	// corresponding transitions, so a poll of a terminal task can
	// always split queueing delay from execution time. A task that
	// never started (cancelled while pending) reports its wait as
	// submitted → finished and no run time.
	WaitMS int64 `json:"wait_ms,omitempty"`
	RunMS  int64 `json:"run_ms,omitempty"`

	Queries     []SubSpec `json:"queries,omitempty"`
	QueryStates []State   `json:"query_states,omitempty"`
	QueriesDone int       `json:"queries_done,omitempty"`
	Parallelism int       `json:"parallelism,omitempty"`

	// Class is the resolved serving tier the scheduler admitted the
	// task under (never empty on a scheduled task).
	Class Class `json:"class,omitempty"`
	// TimeoutMS echoes the spec's deadline, if any.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// IsBatch reports whether the task is a batch.
func (t Task) IsBatch() bool { return len(t.Queries) > 0 }

// Duration returns the task's execution time, zero until it finishes.
func (t Task) Duration() time.Duration {
	if t.Finished.IsZero() || t.Started.IsZero() {
		return 0
	}
	return t.Finished.Sub(t.Started)
}

// Result is the persisted outcome of a completed task: metadata plus
// the top-ranked entries (the full score vector would be prohibitive
// for large graphs; the demo's tables only ever show the top). For a
// batch task, Top is empty and Queries carries one SubResult per
// subquery; progress snapshots of the document are persisted while
// the batch runs (throttled, see batchProgressInterval), so polls of
// a running batch already see completed subresults.
type Result struct {
	Task       Task            `json:"task"`
	Top        []ranking.Entry `json:"top"`
	Iterations int             `json:"iterations,omitempty"`
	Residual   float64         `json:"residual,omitempty"`
	Cycles     int64           `json:"cycles,omitempty"`
	GraphNodes int             `json:"graph_nodes"`
	GraphEdges int64           `json:"graph_edges"`
	Queries    []SubResult     `json:"queries,omitempty"`
	// Cached reports that the task did not pay for (all of) its
	// answer: the score vector, or a leg a 2DRank sweep combined, came
	// from the registry's score-vector memo. Its run time is then not
	// comparable with a computed sibling's.
	Cached bool `json:"cached,omitempty"`
	// Phases is the task's span tree: where its execution milliseconds
	// went (reverse push, walks, ...), recorded by the obs tracer the
	// executor opens around every task.
	Phases []obs.SpanNode `json:"phases,omitempty"`
}

// SubResult is the outcome of one batch subquery. A failed subquery
// records its error here without failing the batch: sibling queries
// still complete and report.
type SubResult struct {
	Algorithm  string          `json:"algorithm"`
	Params     algo.Params     `json:"params"`
	State      State           `json:"state"`
	Error      string          `json:"error,omitempty"`
	Top        []ranking.Entry `json:"top,omitempty"`
	Iterations int             `json:"iterations,omitempty"`
	Residual   float64         `json:"residual,omitempty"`
	Cycles     int64           `json:"cycles,omitempty"`
	Cached     bool            `json:"cached,omitempty"` // see Result.Cached
	DurationMS int64           `json:"duration_ms"`
	// Phases is this subquery's span subtree (see Result.Phases).
	Phases []obs.SpanNode `json:"phases,omitempty"`
}

// NewID generates a 128-bit random identifier formatted like the
// demo's comparison ids (8-4-4-4-12 hex groups).
func NewID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("task: generating id: %w", err)
	}
	h := hex.EncodeToString(b[:])
	return fmt.Sprintf("%s-%s-%s-%s-%s", h[0:8], h[8:12], h[12:16], h[16:20], h[20:32]), nil
}
