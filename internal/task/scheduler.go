package task

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/traffic"
)

// SchedulerConfig configures a Scheduler.
type SchedulerConfig struct {
	// Registry resolves algorithm names; required.
	Registry *algo.Registry
	// Load fetches dataset graphs by name; required.
	Load LoaderFunc
	// Store persists results and logs; required.
	Store *datastore.Store
	// Workers is the interactive executor pool size (default 2). The
	// paper's computational nodes "can be scaled up or down depending
	// on the system's workload".
	Workers int
	// BatchWorkers is the batch-tier executor pool size (default:
	// Workers). Batch-class tasks run on their own bounded pool so an
	// interactive flood cannot starve queued batches and a long batch
	// cannot occupy an interactive executor.
	BatchWorkers int
	// Admission bounds the interactive tier (see AdmissionConfig). The
	// zero value admits everything.
	Admission AdmissionConfig
	// Traffic, when non-nil, receives the warmable artifact keys of
	// every admitted submission, feeding the learned pre-warm.
	Traffic *traffic.Sketch
	// QueueDepth is the pending-task buffer (default 128). Submission
	// fails fast when the queue is full rather than blocking the API.
	QueueDepth int
	// TopK is how many top entries each result persists (default 50).
	TopK int
	// TaskTimeout bounds a single task's execution; a task exceeding
	// it fails with a timeout error. Zero means no limit. A public
	// demo sets this so one pathological query (K=10 on a dense
	// graph) cannot monopolize an executor forever.
	TaskTimeout time.Duration
	// SlowQueryThreshold turns on the slow-query log: every task whose
	// execution takes at least this long emits one structured JSON
	// line with its full phase breakdown. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
}

func (c SchedulerConfig) validate() error {
	if c.Registry == nil {
		return fmt.Errorf("task: scheduler needs a registry")
	}
	if c.Load == nil {
		return fmt.Errorf("task: scheduler needs a dataset loader")
	}
	if c.Store == nil {
		return fmt.Errorf("task: scheduler needs a datastore")
	}
	return nil
}

// Scheduler owns the task queue, the executor pool, the dataset cache
// and the in-memory task table. It is safe for concurrent use.
type Scheduler struct {
	cfg        SchedulerConfig
	queue      chan string // interactive-tier task ids
	batchQueue chan string // batch-tier task ids

	mu      sync.RWMutex
	tasks   map[string]*Task
	cancels map[string]context.CancelFunc
	sets    map[string][]string // query set id -> task ids

	cacheMu sync.Mutex
	cache   map[string]*graph.Graph
	stats   map[string]CostStats  // per-dataset cost-model stats
	loading map[string]*graphLoad // the cfg.Load in flight per dataset

	// Admission state (see admission.go): interactive reservations by
	// task id, pending (admitted, not yet executing) count, the summed
	// estimated-cost backlog (units and calibrated milliseconds), and
	// the live interactive slot limit (moved by the auto-sizing
	// hill-climb when AdmissionConfig.AutoSlots).
	admitMu        sync.Mutex
	admitted       map[string]*admitRecord
	admitPending   int
	admitBacklog   float64
	admitBacklogMS float64
	slotLimit      int

	// Control-loop state: the per-family EWMA cost calibrator and the
	// windowed interactive run-time percentiles the SLO shed and slot
	// tuner read.
	calibrator *calibrator
	latWin     *latencyWindow

	wg      sync.WaitGroup
	stop    context.CancelFunc
	stopped chan struct{}

	// Per-instance workload metrics, merged into the server's scrape
	// endpoint through MetricsRegistry.
	reg          *obs.Registry
	tasksDone    *obs.Counter
	tasksFailed  *obs.Counter
	tasksCancel  *obs.Counter
	waitSeconds  *obs.Histogram
	runSeconds   *obs.Histogram
	subqSeconds  *obs.Histogram
	batchFanout  *obs.Histogram
	batchQueries *obs.Counter
	graphLoads   *obs.Counter
	admittedInt  *obs.Counter
	admittedBat  *obs.Counter
	shedSlots    *obs.Counter
	shedQueue    *obs.Counter
	shedBacklog  *obs.Counter
	shedSLO      *obs.Counter
	deadlineExc  *obs.Counter
	costPerMS    *obs.Histogram
	predictRatio *obs.Histogram
	runSecsInt   *obs.Histogram
	runSecsBat   *obs.Histogram
	slotAdjUp    *obs.Counter
	slotAdjDown  *obs.Counter

	slowMu sync.Mutex // serializes slow-query log lines
}

// NewScheduler builds a scheduler and starts its executor pool.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = cfg.Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 50
	}
	if cfg.SlowQueryLog == nil {
		cfg.SlowQueryLog = os.Stderr
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := obs.NewRegistry()
	s := &Scheduler{
		cfg:        cfg,
		queue:      make(chan string, cfg.QueueDepth),
		batchQueue: make(chan string, cfg.QueueDepth),
		tasks:      make(map[string]*Task),
		cancels:    make(map[string]context.CancelFunc),
		sets:       make(map[string][]string),
		cache:      make(map[string]*graph.Graph),
		stats:      make(map[string]CostStats),
		loading:    make(map[string]*graphLoad),
		admitted:   make(map[string]*admitRecord),
		slotLimit:  cfg.Admission.initialSlots(),
		calibrator: newCalibrator(),
		latWin:     newLatencyWindow(),
		stop:       cancel,
		stopped:    make(chan struct{}),

		reg:          r,
		tasksDone:    r.Counter("cyclerank_scheduler_tasks_total", "Tasks reaching a terminal state.", "state", "done"),
		tasksFailed:  r.Counter("cyclerank_scheduler_tasks_total", "Tasks reaching a terminal state.", "state", "failed"),
		tasksCancel:  r.Counter("cyclerank_scheduler_tasks_total", "Tasks reaching a terminal state.", "state", "cancelled"),
		waitSeconds:  r.Histogram("cyclerank_scheduler_task_wait_seconds", "Time a task spent queued before an executor picked it up.", nil),
		runSeconds:   r.Histogram("cyclerank_scheduler_task_run_seconds", "Time a task spent executing.", nil),
		subqSeconds:  r.Histogram("cyclerank_scheduler_subquery_seconds", "Per-subquery execution time inside batch tasks.", nil),
		batchFanout:  r.Histogram("cyclerank_scheduler_batch_fanout", "Effective intra-batch worker pool size per batch task.", obs.ExponentialBuckets(1, 2, 9)),
		batchQueries: r.Counter("cyclerank_scheduler_batch_queries_total", "Subqueries executed across all batch tasks."),
		graphLoads:   r.Counter("cyclerank_scheduler_graph_loads_total", "Dataset graphs actually loaded (graph-cache misses). The admission fast-reject path never increments this."),
		admittedInt:  r.Counter("cyclerank_admission_admitted_total", "Tasks admitted by the serving tier.", "class", "interactive"),
		admittedBat:  r.Counter("cyclerank_admission_admitted_total", "Tasks admitted by the serving tier.", "class", "batch"),
		shedSlots:    r.Counter("cyclerank_admission_shed_total", "Submissions shed by admission control.", "reason", "slots"),
		shedQueue:    r.Counter("cyclerank_admission_shed_total", "Submissions shed by admission control.", "reason", "queue"),
		shedBacklog:  r.Counter("cyclerank_admission_shed_total", "Submissions shed by admission control.", "reason", "backlog"),
		shedSLO:      r.Counter("cyclerank_admission_shed_total", "Submissions shed by admission control.", "reason", "slo"),
		deadlineExc:  r.Counter("cyclerank_admission_deadline_exceeded_total", "Tasks and batch subqueries failed by a propagated deadline."),
		costPerMS:    r.Histogram("cyclerank_cost_units_per_ms", "Post-hoc estimator calibration: estimated cost units per measured run millisecond of completed tasks.", obs.ExponentialBuckets(1, 4, 12)),
		predictRatio: r.Histogram("cyclerank_cost_prediction_ratio", "Predicted-over-measured run-time ratio of completed tasks (1.0 = perfectly calibrated).", obs.ExponentialBuckets(1.0/64, 2, 13)),
		runSecsInt:   r.Histogram("cyclerank_class_run_seconds", "Task execution time by serving class.", nil, "class", "interactive"),
		runSecsBat:   r.Histogram("cyclerank_class_run_seconds", "Task execution time by serving class.", nil, "class", "batch"),
		slotAdjUp:    r.Counter("cyclerank_admission_slot_adjustments_total", "Interactive slot-limit moves by the auto-sizing hill-climb.", "direction", "up"),
		slotAdjDown:  r.Counter("cyclerank_admission_slot_adjustments_total", "Interactive slot-limit moves by the auto-sizing hill-climb.", "direction", "down"),
	}
	r.GaugeFunc("cyclerank_scheduler_queue_depth", "Task ids waiting in the interactive queue buffer.", func() float64 {
		return float64(len(s.queue))
	})
	r.GaugeFunc("cyclerank_scheduler_batch_queue_depth", "Task ids waiting in the batch queue buffer.", func() float64 {
		return float64(len(s.batchQueue))
	})
	r.GaugeFunc("cyclerank_scheduler_workers", "Interactive executor pool size.", func() float64 {
		return float64(cfg.Workers)
	})
	r.GaugeFunc("cyclerank_scheduler_batch_workers", "Batch executor pool size.", func() float64 {
		return float64(cfg.BatchWorkers)
	})
	r.GaugeFunc("cyclerank_admission_backlog_units", "Summed estimated cost of in-flight interactive tasks.", func() float64 {
		s.admitMu.Lock()
		defer s.admitMu.Unlock()
		return s.admitBacklog
	})
	r.GaugeFunc("cyclerank_admission_inflight", "Interactive tasks admitted and not yet terminal.", func() float64 {
		s.admitMu.Lock()
		defer s.admitMu.Unlock()
		return float64(len(s.admitted))
	})
	r.GaugeFunc("cyclerank_admission_backlog_ms", "Summed predicted milliseconds of in-flight interactive work (calibrated units).", func() float64 {
		s.admitMu.Lock()
		defer s.admitMu.Unlock()
		return s.admitBacklogMS
	})
	r.GaugeFunc("cyclerank_admission_interactive_slots", "Live interactive slot limit (moved by the auto-sizing hill-climb when active).", func() float64 {
		s.admitMu.Lock()
		defer s.admitMu.Unlock()
		return float64(s.slotLimit)
	})
	r.GaugeFunc("cyclerank_admission_interactive_p99_seconds", "Windowed interactive p99 run time the slo shed decision reads.", func() float64 {
		p99, _ := s.latWin.p99()
		return p99 / 1e3
	})
	for _, fam := range CostFamilies() {
		fam := fam
		r.GaugeFunc("cyclerank_cost_calibration_units_per_ms", "Learned EWMA cost-model rate by algorithm family (0 until the first observation).", func() float64 {
			if rate, learned := s.calibrator.rate(fam); learned {
				return rate
			}
			return 0
		}, "family", fam)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.executor(ctx, i, s.queue)
	}
	for i := 0; i < cfg.BatchWorkers; i++ {
		s.wg.Add(1)
		go s.executor(ctx, cfg.Workers+i, s.batchQueue)
	}
	if cfg.Admission.AutoSlots() {
		s.wg.Add(1)
		go s.slotTuner(ctx)
	}
	go func() {
		s.wg.Wait()
		close(s.stopped)
	}()
	return s, nil
}

// slotTuneInterval paces the slot auto-sizing hill-climb. Package
// variable so the control-loop tests can compress time.
var slotTuneInterval = 5 * time.Second

// slotTuner is the bounded hill-climb that auto-sizes the interactive
// slot limit from observed run-time percentiles: p99 over the SLO →
// one slot down (less concurrency, less queueing ahead of each task);
// p99 comfortably under half the SLO → one slot up (reclaim
// throughput). One step per tick keeps the loop stable — the
// percentile window must refill with post-move samples before the next
// decision.
func (s *Scheduler) slotTuner(ctx context.Context) {
	defer s.wg.Done()
	ticker := time.NewTicker(slotTuneInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.tuneSlots()
		}
	}
}

func (s *Scheduler) tuneSlots() {
	cfg := s.cfg.Admission
	p99, n := s.latWin.p99()
	if n < sloMinSamples {
		return
	}
	slo := float64(cfg.SLOInteractive) / float64(time.Millisecond)
	s.admitMu.Lock()
	switch {
	case p99 > slo && s.slotLimit > cfg.slotsMin():
		s.slotLimit--
		s.slotAdjDown.Inc()
	case p99 < slo/2 && s.slotLimit < cfg.InteractiveSlotsMax:
		s.slotLimit++
		s.slotAdjUp.Inc()
	}
	s.admitMu.Unlock()
}

// MetricsRegistry returns the scheduler's workload metrics registry,
// for merging into a scrape endpoint.
func (s *Scheduler) MetricsRegistry() *obs.Registry { return s.reg }

// stampTimesLocked derives a task's wait_ms/run_ms split from its
// transition timestamps. Idempotent; called wherever Started or
// Finished is set, under s.mu (or on a private copy).
func stampTimesLocked(t *Task) {
	switch {
	case !t.Started.IsZero():
		t.WaitMS = t.Started.Sub(t.Submitted).Milliseconds()
		if !t.Finished.IsZero() {
			t.RunMS = t.Finished.Sub(t.Started).Milliseconds()
		}
	case !t.Finished.IsZero():
		// Never executed: the whole lifetime was queueing.
		t.WaitMS = t.Finished.Sub(t.Submitted).Milliseconds()
	}
}

// Submit schedules every spec of a query set and returns the query-set
// (comparison) id plus the individual task ids, in spec order.
//
// Admission runs here, on the fast path: every spec is priced from
// cached graph stats (EstimateCost — no graph load), interactive-class
// specs reserve capacity all-or-nothing, and an over-budget query set
// returns *ShedError with nothing registered, nothing enqueued and no
// graph touched. Batch-class specs are never shed.
func (s *Scheduler) Submit(specs []Spec) (querySet string, taskIDs []string, err error) {
	if len(specs) == 0 {
		return "", nil, fmt.Errorf("task: empty query set")
	}
	querySet, err = NewID()
	if err != nil {
		return "", nil, err
	}
	now := time.Now()

	// Create all tasks first so a full queue cannot leave a partially
	// registered query set.
	created := make([]*Task, len(specs))
	reserve := make(map[string]admitReserve)
	for i, spec := range specs {
		id, err := NewID()
		if err != nil {
			return "", nil, err
		}
		units := EstimateCost(spec, s.CostStats(spec.Dataset))
		family := CostFamily(spec)
		t := &Task{
			ID:            id,
			QuerySet:      querySet,
			Dataset:       spec.Dataset,
			Algorithm:     spec.Algorithm,
			Params:        spec.Params,
			State:         StatePending,
			Submitted:     now,
			Class:         resolveClass(spec),
			TimeoutMS:     spec.TimeoutMS,
			EstimatedCost: units,
			CostFamily:    family,
			PredictedMS:   s.calibrator.predictMS(family, units),
		}
		if spec.IsBatch() {
			if len(spec.Queries) > MaxBatchQueries {
				return "", nil, fmt.Errorf("task: batch has %d queries, limit %d", len(spec.Queries), MaxBatchQueries)
			}
			t.Queries = append([]SubSpec(nil), spec.Queries...)
			t.QueryStates = make([]State, len(t.Queries))
			for j := range t.QueryStates {
				t.QueryStates[j] = StatePending
			}
			t.Parallelism = spec.Parallelism
		}
		if t.Class == ClassInteractive {
			reserve[id] = admitReserve{units: t.EstimatedCost, ms: t.PredictedMS}
		}
		created[i] = t
	}

	if shed := s.tryAdmit(reserve); shed != nil {
		return "", nil, shed
	}
	for _, t := range created {
		if t.Class == ClassInteractive {
			s.admittedInt.Inc()
		} else {
			s.admittedBat.Inc()
		}
	}
	for _, spec := range specs {
		recordTraffic(s.cfg.Traffic, spec)
	}

	s.mu.Lock()
	for _, t := range created {
		s.tasks[t.ID] = t
		s.sets[querySet] = append(s.sets[querySet], t.ID)
		taskIDs = append(taskIDs, t.ID)
	}
	s.mu.Unlock()

	for _, t := range created {
		tier := s.queue
		if t.Class == ClassBatch {
			tier = s.batchQueue
		}
		select {
		case tier <- t.ID:
		default:
			s.failTask(t.ID, fmt.Errorf("task: queue full"))
		}
	}
	return querySet, taskIDs, nil
}

// Status returns a snapshot of the task.
func (s *Scheduler) Status(taskID string) (Task, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return Task{}, fmt.Errorf("task: unknown task %q", taskID)
	}
	return *t, nil
}

// QuerySet returns snapshots of every task in a query set, in
// submission order.
func (s *Scheduler) QuerySet(id string) ([]Task, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids, ok := s.sets[id]
	if !ok {
		return nil, fmt.Errorf("task: unknown query set %q", id)
	}
	out := make([]Task, 0, len(ids))
	for _, tid := range ids {
		out = append(out, *s.tasks[tid])
	}
	return out, nil
}

// Tasks returns snapshots of all known tasks, newest first.
func (s *Scheduler) Tasks() []Task {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.After(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Cancel requests cancellation of a running or pending task. Cancelling
// an already terminal task is a no-op.
func (s *Scheduler) Cancel(taskID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return fmt.Errorf("task: unknown task %q", taskID)
	}
	if t.State.Terminal() {
		return nil
	}
	if cancel, running := s.cancels[taskID]; running {
		cancel()
		return nil
	}
	// Pending: mark cancelled now; the executor skips it when popped.
	t.State = StateCancelled
	t.Finished = time.Now()
	stampTimesLocked(t)
	finalizeQueryStatesLocked(t)
	s.tasksCancel.Inc()
	s.admitRelease(taskID)
	return nil
}

// finalizeQueryStatesLocked resolves a batch task's non-terminal
// subquery states to cancelled. Termination paths that bypass
// executeBatch — cancelling a still-pending batch, a dataset load
// failure — must not leave query_states reporting "pending" on a task
// that will never run them. Idempotent; the caller must hold s.mu.
func finalizeQueryStatesLocked(t *Task) {
	if !t.IsBatch() {
		return
	}
	states := append([]State(nil), t.QueryStates...)
	for i, st := range states {
		if !st.Terminal() {
			states[i] = StateCancelled
			t.QueriesDone++
		}
	}
	t.QueryStates = states
}

// Shutdown stops the executor pool, waiting until in-flight tasks
// finish or ctx expires.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.stop()
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("task: shutdown timed out: %w", ctx.Err())
	}
}

// WaitQuerySet blocks until every task of the query set is terminal or
// ctx expires, returning the final snapshots.
func (s *Scheduler) WaitQuerySet(ctx context.Context, id string) ([]Task, error) {
	for {
		tasks, err := s.QuerySet(id)
		if err != nil {
			return nil, err
		}
		allDone := true
		for _, t := range tasks {
			if !t.State.Terminal() {
				allDone = false
				break
			}
		}
		if allDone {
			return tasks, nil
		}
		select {
		case <-ctx.Done():
			return tasks, fmt.Errorf("task: wait: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (s *Scheduler) failTask(id string, err error) {
	s.mu.Lock()
	if t, ok := s.tasks[id]; ok && !t.State.Terminal() {
		t.State = StateFailed
		t.Error = err.Error()
		t.Finished = time.Now()
		stampTimesLocked(t)
		finalizeQueryStatesLocked(t)
		s.tasksFailed.Inc()
		if !t.Started.IsZero() {
			sec := t.Finished.Sub(t.Started).Seconds()
			s.runSeconds.Observe(sec)
			s.observeClassRun(t.Class, sec)
		}
	}
	s.mu.Unlock()
	s.admitRelease(id)
}

// LoadGraph fetches a dataset through the scheduler's per-name graph
// cache — the same cache executors resolve task datasets through, so
// an out-of-band caller (the server's startup pre-warm) receives the
// exact *Graph pointer later queries will run against, and
// pointer-keyed caches (the index store's memory tier) warm for both.
func (s *Scheduler) LoadGraph(name string) (*graph.Graph, error) {
	return s.loadGraph(name)
}

// graphLoad is one cfg.Load in flight; callers that find it wait on
// done and take its outcome.
type graphLoad struct {
	done chan struct{}
	g    *graph.Graph
	err  error
}

// loadGraph fetches a dataset with per-name caching: repeated queries
// against the same dataset (the common comparison workflow) parse or
// generate the graph once. Loading is single-flight per name —
// executors that miss together share one cfg.Load and receive one
// *Graph, which is what lets downstream caches key on the pointer. A
// load that InvalidateDataset overtook read the data the invalidation
// retires: its graph still goes to the callers already waiting for it
// but is never cached, and later callers load afresh.
func (s *Scheduler) loadGraph(name string) (*graph.Graph, error) {
	s.cacheMu.Lock()
	if g, ok := s.cache[name]; ok {
		s.cacheMu.Unlock()
		return g, nil
	}
	if l, ok := s.loading[name]; ok {
		s.cacheMu.Unlock()
		<-l.done
		return l.g, l.err
	}
	l := &graphLoad{done: make(chan struct{})}
	s.loading[name] = l
	s.cacheMu.Unlock()

	l.g, l.err = s.cfg.Load(name)
	if l.err == nil {
		s.graphLoads.Inc()
	}
	s.cacheMu.Lock()
	if s.loading[name] == l {
		delete(s.loading, name)
		if l.err == nil {
			s.cache[name] = l.g
			// Remember the shape for the cost model: the admission fast
			// path prices later submissions from these numbers without
			// loading.
			s.stats[name] = CostStats{Nodes: l.g.NumNodes(), Edges: l.g.NumEdges()}
		}
	}
	s.cacheMu.Unlock()
	close(l.done)
	return l.g, l.err
}

// LoadedGraphRow describes one resident dataset for capacity
// planning: its shape plus the bytes it pins, split out so operators
// can see what each derived hot-path view — the cache-conscious
// layout, the walk sample table — costs on top of the bare CSR
// (memory_bytes includes both).
type LoadedGraphRow struct {
	Name             string `json:"name"`
	Nodes            int    `json:"nodes"`
	Edges            int64  `json:"edges"`
	MemoryBytes      int64  `json:"memory_bytes"`
	LayoutBytes      int64  `json:"layout_bytes"`
	SampleTableBytes int64  `json:"sample_table_bytes"`
}

// LoadedGraphs snapshots the scheduler's graph cache, sorted by name.
func (s *Scheduler) LoadedGraphs() []LoadedGraphRow {
	s.cacheMu.Lock()
	rows := make([]LoadedGraphRow, 0, len(s.cache))
	for name, g := range s.cache {
		rows = append(rows, LoadedGraphRow{
			Name:             name,
			Nodes:            g.NumNodes(),
			Edges:            g.NumEdges(),
			MemoryBytes:      g.MemoryFootprint(),
			LayoutBytes:      g.LayoutBytes(),
			SampleTableBytes: g.SampleTableBytes(),
		})
	}
	s.cacheMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// InvalidateDataset drops a dataset from the cache (after re-upload
// or deletion), disowns a load of it still in flight, and has the
// registry drop the score vectors it holds for the graph, so the old
// graph is collectable as soon as the tasks running on it end.
func (s *Scheduler) InvalidateDataset(name string) {
	s.cacheMu.Lock()
	g := s.cache[name]
	delete(s.cache, name)
	delete(s.stats, name)
	delete(s.loading, name)
	s.cacheMu.Unlock()
	if g != nil {
		s.cfg.Registry.ForgetGraph(g)
	}
}

// executor is one computational worker: it pops task ids from its
// tier's queue, runs the algorithm, and persists the result and log.
func (s *Scheduler) executor(ctx context.Context, worker int, queue <-chan string) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case id := <-queue:
			s.execute(ctx, worker, id)
		}
	}
}

// effectiveTimeout resolves a task's deadline: the tighter of the
// scheduler-wide TaskTimeout and the spec's own timeout_ms. Zero
// means unlimited.
func (s *Scheduler) effectiveTimeout(t *Task) time.Duration {
	timeout := s.cfg.TaskTimeout
	if t.TimeoutMS > 0 {
		spec := time.Duration(t.TimeoutMS) * time.Millisecond
		if timeout == 0 || spec < timeout {
			timeout = spec
		}
	}
	return timeout
}

func (s *Scheduler) execute(ctx context.Context, worker int, id string) {
	s.mu.Lock()
	t, ok := s.tasks[id]
	if !ok || t.State != StatePending {
		s.mu.Unlock()
		return
	}
	t.State = StateRunning
	t.Started = time.Now()
	stampTimesLocked(t)
	var (
		taskCtx context.Context
		cancel  context.CancelFunc
	)
	timeout := s.effectiveTimeout(t)
	if timeout > 0 {
		taskCtx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		taskCtx, cancel = context.WithCancel(ctx)
	}
	s.cancels[id] = cancel
	snapshot := *t
	s.mu.Unlock()
	s.admitStarted(id)
	s.waitSeconds.Observe(snapshot.Started.Sub(snapshot.Submitted).Seconds())

	// Every task runs under a trace so its result carries the phase
	// breakdown; instrumented layers below (bippr, algo) attach their
	// spans to this context.
	taskCtx, trace := obs.NewTrace(taskCtx, "task")

	defer func() {
		cancel()
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
	}()

	s.log(id, fmt.Sprintf("worker %d: executing %s on %s (%s)", worker, snapshot.Algorithm, snapshot.Dataset, snapshot.Params))

	g, err := s.loadGraph(snapshot.Dataset)
	if err != nil {
		s.finish(id, err)
		return
	}
	if snapshot.IsBatch() {
		s.executeBatch(taskCtx, trace, t, snapshot, g, timeout)
		return
	}
	res, err := algo.Run(taskCtx, s.cfg.Registry, snapshot.Algorithm, g, snapshot.Params)
	trace.End()
	if err != nil {
		switch {
		case errors.Is(taskCtx.Err(), context.DeadlineExceeded):
			// Timeouts are failures, not user cancellations: the user
			// should see why their task produced no result. The wrapped
			// error names the phase the deadline landed in (e.g. "bippr:
			// reverse push cancelled", "bippr: walks cancelled").
			s.deadlineExc.Inc()
			s.finish(id, fmt.Errorf("task: execution exceeded %s timeout: %w", timeout, err))
		case taskCtx.Err() != nil:
			s.cancelled(id)
		default:
			s.finish(id, err)
		}
		return
	}

	doc := Result{
		Top:        res.Top(s.cfg.TopK),
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Cycles:     res.CyclesFound,
		Cached:     res.Cached,
		GraphNodes: g.NumNodes(),
		GraphEdges: g.NumEdges(),
		Phases:     trace.Tree().Children,
	}

	// Persist the result and the completion log BEFORE publishing the
	// terminal state: the moment an observer sees StateDone, the
	// result document and full log must already be readable.
	finished := time.Now()
	s.mu.Lock()
	done := *t
	done.State = StateDone
	done.Finished = finished
	stampTimesLocked(&done)
	s.mu.Unlock()
	doc.Task = done

	if err := s.cfg.Store.SaveResult(id, doc); err != nil {
		s.failTask(id, err)
		s.log(id, "persisting result failed: "+err.Error())
		return
	}
	s.log(id, fmt.Sprintf("done in %s", done.Duration()))

	s.mu.Lock()
	t.State = StateDone
	t.Finished = finished
	stampTimesLocked(t)
	s.mu.Unlock()
	s.admitRelease(id)
	s.tasksDone.Inc()
	sec := finished.Sub(done.Started).Seconds()
	s.runSeconds.Observe(sec)
	s.observeClassRun(done.Class, sec)
	if !doc.Cached {
		s.observeCost(done)
	}
	s.maybeLogSlow(done, doc.Phases)
}

// observeCost closes the calibration loop on one completed task: the
// units-per-ms histogram gets the measurement, the per-family EWMA
// calibrator gets the same number (so the NEXT estimate converts to
// milliseconds at the refreshed rate), and the prediction-ratio
// histogram tracks how well the loop is converging.
//
// The measured duration comes from the timestamps, NOT the integer
// RunMS: truncation dropped sub-millisecond tasks entirely and counted
// a 1.9 ms task as 1 ms — up to 2x inflated units/ms on exactly the
// fast interactive traffic the EWMA must calibrate on.
//
// Callers skip a task whose result is Cached: it ran for microseconds
// against an estimate that prices the full computation, and one such
// observation would teach its family a rate a thousand times too high
// and price the next cold run at zero milliseconds.
func (s *Scheduler) observeCost(t Task) {
	if t.EstimatedCost <= 0 || t.Started.IsZero() || t.Finished.IsZero() {
		return
	}
	ms := t.Finished.Sub(t.Started).Seconds() * 1e3
	if ms <= 0 {
		return
	}
	s.costPerMS.Observe(t.EstimatedCost / ms)
	s.calibrator.observe(t.CostFamily, t.EstimatedCost, ms)
	if t.PredictedMS > 0 {
		s.predictRatio.Observe(t.PredictedMS / ms)
	}
}

// observeClassRun feeds the per-class latency histograms and, for
// interactive tasks, the SLO percentile window.
func (s *Scheduler) observeClassRun(class Class, seconds float64) {
	if class == ClassInteractive {
		s.runSecsInt.Observe(seconds)
		s.latWin.observe(seconds * 1e3)
	} else {
		s.runSecsBat.Observe(seconds)
	}
}

// maybeLogSlow emits one structured JSON line for a task whose
// execution met the slow-query threshold: the task identity, its
// wait/run split, and the full phase breakdown — everything needed to
// say where the milliseconds went without re-running the query.
func (s *Scheduler) maybeLogSlow(t Task, phases []obs.SpanNode) {
	if s.cfg.SlowQueryThreshold <= 0 || t.Started.IsZero() || t.Finished.Sub(t.Started) < s.cfg.SlowQueryThreshold {
		return
	}
	line, err := json.Marshal(struct {
		TS          string         `json:"ts"`
		Msg         string         `json:"msg"`
		Task        string         `json:"task"`
		QuerySet    string         `json:"query_set"`
		Dataset     string         `json:"dataset"`
		Algorithm   string         `json:"algorithm"`
		WaitMS      int64          `json:"wait_ms"`
		RunMS       int64          `json:"run_ms"`
		ThresholdMS int64          `json:"threshold_ms"`
		Phases      []obs.SpanNode `json:"phases,omitempty"`
	}{
		TS:          t.Finished.UTC().Format(time.RFC3339Nano),
		Msg:         "slow query",
		Task:        t.ID,
		QuerySet:    t.QuerySet,
		Dataset:     t.Dataset,
		Algorithm:   t.Algorithm,
		WaitMS:      t.WaitMS,
		RunMS:       t.RunMS,
		ThresholdMS: s.cfg.SlowQueryThreshold.Milliseconds(),
		Phases:      phases,
	})
	if err != nil {
		return
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	fmt.Fprintln(s.cfg.SlowQueryLog, string(line))
}

// batchProgressInterval throttles mid-batch result persistence: at
// most one fsync'd snapshot per interval, so progress observability
// never dominates the wall-clock of a batch of cheap cached queries.
const batchProgressInterval = time.Second

// clampParallelism bounds a batch's intra-batch pool size: 0 selects
// GOMAXPROCS, every value is capped by GOMAXPROCS (subqueries are
// CPU-bound; more workers would only contend) and by the batch size,
// and the floor is 1 (sequential).
func clampParallelism(requested, queries int) int {
	p := requested
	procs := runtime.GOMAXPROCS(0)
	if p <= 0 || p > procs {
		p = procs
	}
	if p > queries {
		p = queries
	}
	if p < 1 {
		p = 1
	}
	return p
}

// subqueryError contextualizes one subquery's failure with its index
// and parameters (which name the source/target), so a single failed
// query inside a large batch is identifiable from the task view alone.
func subqueryError(i int, q SubSpec, err error) string {
	return fmt.Sprintf("query %d (%s %s): %v", i, q.Algorithm, q.Params, err)
}

// executeBatch runs a batch task: the graph is already loaded (once,
// for all subqueries), and the subqueries fan across a bounded
// intra-batch worker pool (Spec.Parallelism, see clampParallelism)
// against the shared registry — so bidirectional subqueries against
// one target share a single reverse push through the estimator's
// index store, and their walk chunks flow through the same worker
// pool. Results are bit-identical for every pool size: each subquery
// is independent and derives its walk seeds from (seed, source,
// chunk), so completion order cannot change any answer (only
// cache-timing effort counters may differ). A subquery failure is
// recorded in its SubResult without failing the batch; cancellation
// and timeout stop the batch and mark the remaining subqueries
// cancelled. Progress snapshots of the result document are persisted
// while the batch runs (throttled to one per batchProgressInterval),
// so polls of a running batch already see finished subresults.
func (s *Scheduler) executeBatch(ctx context.Context, trace *obs.Trace, t *Task, snapshot Task, g *graph.Graph, timeout time.Duration) {
	id := snapshot.ID
	subs := make([]SubResult, len(snapshot.Queries))
	doc := Result{
		GraphNodes: g.NumNodes(),
		GraphEdges: g.NumEdges(),
		Queries:    subs,
	}
	for i := range subs {
		subs[i].Algorithm = snapshot.Queries[i].Algorithm
		subs[i].Params = snapshot.Queries[i].Params
		subs[i].State = StatePending
	}

	workers := clampParallelism(snapshot.Parallelism, len(snapshot.Queries))
	s.log(id, fmt.Sprintf("batch: %d queries, parallelism %d", len(subs), workers))
	s.batchFanout.Observe(float64(workers))
	s.batchQueries.Add(int64(len(subs)))

	var (
		// subMu guards subs entries against the progress snapshots a
		// concurrent worker may trigger; each worker writes only its
		// own index, but persistence marshals the whole slice.
		subMu       sync.Mutex
		lastPersist time.Time // guarded by subMu; zero: first persist fires
		interrupted atomic.Bool
		// persistMu serializes snapshot-taking WITH the write: without
		// it a worker could copy an older snapshot, lose the CPU, and
		// persist it over a sibling's newer one — a poll would see a
		// done subquery regress to pending.
		persistMu sync.Mutex
	)

	// snapshotDoc copies the result document under subMu so progress
	// persistence never races a sibling subquery's write.
	snapshotDoc := func() Result {
		out := doc
		subMu.Lock()
		out.Queries = append([]SubResult(nil), subs...)
		subMu.Unlock()
		return out
	}

	runOne := func(i int) {
		q := snapshot.Queries[i]
		if ctx.Err() != nil {
			subMu.Lock()
			subs[i].State = StateCancelled
			subMu.Unlock()
			s.setQueryState(id, i, StateCancelled)
			interrupted.Store(true)
			return
		}
		s.setQueryState(id, i, StateRunning)
		start := time.Now()
		// Each subquery gets its own span under the batch trace; the
		// span *set* is identical for every pool size because every
		// subquery opens the same spans regardless of which worker or
		// in what order it ran.
		qctx, span := obs.StartSpan(ctx, "subquery")
		span.SetMetric("index", float64(i))
		// A subquery deadline nests inside the batch's: the qctx expires
		// alone, the batch ctx stays live, and siblings keep running.
		var qcancel context.CancelFunc = func() {}
		if q.TimeoutMS > 0 {
			qctx, qcancel = context.WithTimeout(qctx, time.Duration(q.TimeoutMS)*time.Millisecond)
		}
		res, err := algo.Run(qctx, s.cfg.Registry, q.Algorithm, g, q.Params)
		qcancel()
		span.End()
		dur := time.Since(start)
		s.subqSeconds.Observe(dur.Seconds())
		sub := SubResult{
			Algorithm:  q.Algorithm,
			Params:     q.Params,
			DurationMS: dur.Milliseconds(),
			Phases:     span.Node().Children,
		}
		switch {
		case err == nil:
			sub.State = StateDone
			sub.Top = res.Top(s.cfg.TopK)
			sub.Iterations = res.Iterations
			sub.Residual = res.Residual
			sub.Cycles = res.CyclesFound
			sub.Cached = res.Cached
		case ctx.Err() != nil:
			sub.State = StateCancelled
			sub.Error = subqueryError(i, q, err)
			interrupted.Store(true)
		case errors.Is(qctx.Err(), context.DeadlineExceeded):
			// Only this subquery's own deadline fired: it fails alone,
			// the batch is NOT interrupted. The wrapped error names the
			// phase the deadline landed in.
			s.deadlineExc.Inc()
			sub.State = StateFailed
			sub.Error = subqueryError(i, q, fmt.Errorf("execution exceeded %s timeout: %w",
				time.Duration(q.TimeoutMS)*time.Millisecond, err))
		default:
			sub.State = StateFailed
			sub.Error = subqueryError(i, q, err)
		}
		subMu.Lock()
		subs[i] = sub
		// Progress persistence is best-effort — a poll mid-batch reads
		// completed subresults; the authoritative write is the final
		// one — and throttled: every persisted snapshot pays a full
		// fsync'd document rewrite, which would dominate a large batch
		// of cheap cached queries if written per subquery.
		persist := false
		if now := time.Now(); now.Sub(lastPersist) >= batchProgressInterval {
			lastPersist = now
			persist = true
		}
		subMu.Unlock()
		s.setQueryState(id, i, sub.State)
		s.log(id, fmt.Sprintf("batch query %d/%d (%s %s): %s", i+1, len(subs), q.Algorithm, q.Params, sub.State))
		if persist {
			persistMu.Lock()
			s.persistBatchProgress(id, snapshotDoc())
			persistMu.Unlock()
		}
	}

	if workers == 1 {
		for i := range snapshot.Queries {
			runOne(i)
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(snapshot.Queries) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}

	// Only an interruption that actually cost a subquery fails the
	// batch: a deadline that fires after the last subquery completed
	// must not retroactively turn a fully successful batch into a
	// timeout (ctx.Err() alone cannot distinguish the two — context
	// errors are sticky).
	if interrupted.Load() {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.deadlineExc.Inc()
			s.finish(id, fmt.Errorf("task: execution exceeded %s timeout after %d/%d batch queries",
				timeout, doneCount(subs), len(subs)))
		} else {
			s.cancelled(id)
		}
		s.persistBatchProgress(id, doc)
		return
	}

	// Same publish ordering as single tasks: the result document is
	// durable before any observer can see StateDone.
	trace.End()
	doc.Phases = trace.Tree().Children
	finished := time.Now()
	s.mu.Lock()
	done := *t
	s.mu.Unlock()
	done.State = StateDone
	done.Finished = finished
	stampTimesLocked(&done)
	doc.Task = done

	if err := s.cfg.Store.SaveResult(id, doc); err != nil {
		s.failTask(id, err)
		s.log(id, "persisting result failed: "+err.Error())
		return
	}
	s.log(id, fmt.Sprintf("batch done in %s (%d/%d queries succeeded)", done.Duration(), doneCount(subs), len(subs)))

	s.mu.Lock()
	if !t.State.Terminal() {
		t.State = StateDone
		t.Finished = finished
		stampTimesLocked(t)
		s.tasksDone.Inc()
		sec := finished.Sub(t.Started).Seconds()
		s.runSeconds.Observe(sec)
		s.observeClassRun(t.Class, sec)
	}
	s.mu.Unlock()
	s.admitRelease(id)
	if !anyCached(subs) {
		s.observeCost(done)
	}
	s.maybeLogSlow(done, doc.Phases)
}

// anyCached reports whether a subresult was served from a memo, which
// makes the batch's run time no measure of its estimated cost.
func anyCached(subs []SubResult) bool {
	for _, s := range subs {
		if s.Cached {
			return true
		}
	}
	return false
}

// doneCount counts successful subresults.
func doneCount(subs []SubResult) int {
	n := 0
	for _, s := range subs {
		if s.State == StateDone {
			n++
		}
	}
	return n
}

// setQueryState publishes one subquery's state transition. The states
// slice is replaced, not mutated, so Task snapshots taken by Status
// readers stay internally consistent without copying on every poll.
func (s *Scheduler) setQueryState(id string, i int, st State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok || i >= len(t.QueryStates) {
		return
	}
	states := append([]State(nil), t.QueryStates...)
	states[i] = st
	t.QueryStates = states
	if st.Terminal() {
		t.QueriesDone++
	}
}

// persistBatchProgress re-writes the batch's result document with the
// current task snapshot, best-effort.
func (s *Scheduler) persistBatchProgress(id string, doc Result) {
	if t, err := s.Status(id); err == nil {
		doc.Task = t
	}
	_ = s.cfg.Store.SaveResult(id, doc)
}

func (s *Scheduler) finish(id string, err error) {
	s.failTask(id, err)
	s.log(id, "failed: "+err.Error())
}

func (s *Scheduler) cancelled(id string) {
	s.mu.Lock()
	if t, ok := s.tasks[id]; ok && !t.State.Terminal() {
		t.State = StateCancelled
		t.Finished = time.Now()
		stampTimesLocked(t)
		finalizeQueryStatesLocked(t)
		s.tasksCancel.Inc()
		if !t.Started.IsZero() {
			sec := t.Finished.Sub(t.Started).Seconds()
			s.runSeconds.Observe(sec)
			s.observeClassRun(t.Class, sec)
		}
	}
	s.mu.Unlock()
	s.admitRelease(id)
	s.log(id, "cancelled")
}

func (s *Scheduler) log(id, line string) {
	// Logging failures must not fail the task; logs are best-effort.
	_ = s.cfg.Store.AppendLog(id, time.Now().UTC().Format(time.RFC3339Nano)+" "+line)
}

// Metrics is a snapshot of the scheduler's workload, the signal the
// paper says drives scaling computational nodes "up or down".
type Metrics struct {
	Workers   int `json:"workers"`
	Queued    int `json:"queued"` // tasks sitting in the queue buffer
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Metrics returns the current workload snapshot.
func (s *Scheduler) Metrics() Metrics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := Metrics{Workers: s.cfg.Workers, Queued: len(s.queue)}
	for _, t := range s.tasks {
		switch t.State {
		case StatePending:
			m.Pending++
		case StateRunning:
			m.Running++
		case StateDone:
			m.Done++
		case StateFailed:
			m.Failed++
		case StateCancelled:
			m.Cancelled++
		}
	}
	return m
}

// LoadResult fetches a completed task's persisted result document.
func (s *Scheduler) LoadResult(taskID string) (Result, error) {
	var doc Result
	if err := s.cfg.Store.LoadResult(taskID, &doc); err != nil {
		return Result{}, err
	}
	return doc, nil
}
