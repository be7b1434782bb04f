package task

import (
	"fmt"
	"math"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// AdmissionConfig bounds the interactive tier. Every limit gates only
// interactive-class tasks — the batch tier is queued, never shed —
// and every check runs on Submit's fast path, pricing the request
// from cached graph stats WITHOUT loading the graph: the whole point
// of shedding is refusing work the server cannot afford, so the
// refusal itself must cost nothing.
//
// Zero values disable each limit individually; the zero config
// disables admission control entirely (every submission is admitted,
// as before this tier existed).
type AdmissionConfig struct {
	// InteractiveSlots caps interactive tasks in flight — admitted and
	// not yet terminal (the concurrency budget).
	InteractiveSlots int
	// MaxPendingInteractive caps interactive tasks admitted but not yet
	// executing (the queue-depth cap).
	MaxPendingInteractive int
	// MaxBacklogUnits caps the summed estimated cost (EstimateCost
	// units) of in-flight interactive tasks — the estimated-backlog
	// cap: many cheap queries or few expensive ones, priced alike.
	MaxBacklogUnits float64
	// RetryAfter is the back-off hint returned with a shed (HTTP
	// Retry-After); default 1s.
	RetryAfter time.Duration
}

// Enabled reports whether any admission limit is configured.
func (c AdmissionConfig) Enabled() bool {
	return c.InteractiveSlots > 0 || c.MaxPendingInteractive > 0 || c.MaxBacklogUnits > 0
}

func (c AdmissionConfig) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return time.Second
}

// ShedError reports a submission refused by admission control. The
// server maps it to 429 Too Many Requests with a Retry-After header.
type ShedError struct {
	// Reason names the exhausted limit: "slots", "queue" or "backlog".
	Reason string
	// RetryAfter is the configured back-off hint.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("task: shed (%s limit reached), retry after %s", e.Reason, e.RetryAfter)
}

// OversizeError reports an interactive query set that exceeds an
// admission limit on its own: it would not fit an idle tier, so it can
// never be admitted and retrying is pointless. The server maps it to
// 400 Bad Request without a Retry-After header.
type OversizeError struct {
	// Limit names the exceeded limit: "slots", "queue" or "backlog".
	Limit string
	// Cap is the configured limit; Size is what the set asks of it
	// (interactive tasks, or clamped cost units for "backlog").
	Cap, Size float64
}

func (e *OversizeError) Error() string {
	what := "interactive tasks"
	if e.Limit == "backlog" {
		what = "estimated cost units"
	}
	return fmt.Sprintf("task: query set needs %.6g %s, more than the whole %s limit of %.6g; it can never be admitted",
		e.Size, what, e.Limit, e.Cap)
}

// admitRecord is one interactive task's admission reservation.
type admitRecord struct {
	units   float64
	started bool
}

// tryAdmit reserves admission capacity for a set of interactive tasks
// (id → estimated cost units), all-or-nothing: a query set either fits
// within every limit or is shed whole — partial admission would run
// half a comparison. Batch-class tasks never appear here.
//
// A set that exceeds a limit on its own is refused with *OversizeError
// before occupancy is consulted: no drain could ever make room for it.
// Otherwise slots, queue and backlog are checked in occupancy order and
// a set that does not fit now is shed with *ShedError.
func (s *Scheduler) tryAdmit(reserve map[string]float64) error {
	cfg := s.cfg.Admission
	if !cfg.Enabled() || len(reserve) == 0 {
		return nil
	}
	var units float64
	for id, u := range reserve {
		// Defense in depth: estimates are clamped at stamp time, but the
		// backlog sum must survive even a bug upstream — a non-finite
		// reservation is priced at the ceiling, never admitted into the
		// arithmetic raw. Written back so the stored records carry the
		// normalized price too (release subtracts what admit added).
		if math.IsNaN(u) || u > MaxCostUnits {
			u = MaxCostUnits
			reserve[id] = u
		}
		units += u
	}
	n := float64(len(reserve))
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	limits := [...]struct {
		name             string
		limit, used, ask float64
		shed             *obs.Counter
	}{
		{"slots", float64(cfg.InteractiveSlots), float64(len(s.admitted)), n, s.shedSlots},
		{"queue", float64(cfg.MaxPendingInteractive), float64(s.admitPending), n, s.shedQueue},
		{"backlog", cfg.MaxBacklogUnits, s.admitBacklog, units, s.shedBacklog},
	}
	for _, l := range limits {
		if l.limit > 0 && l.ask > l.limit {
			return &OversizeError{Limit: l.name, Cap: l.limit, Size: l.ask}
		}
	}
	for _, l := range limits {
		if l.limit > 0 && l.used+l.ask > l.limit {
			l.shed.Add(int64(n))
			return &ShedError{Reason: l.name, RetryAfter: cfg.retryAfter()}
		}
	}
	for id, u := range reserve {
		s.admitted[id] = &admitRecord{units: u}
		s.admitPending++
		s.admitBacklog += u
	}
	return nil
}

// admitStarted moves an admitted task from the pending to the running
// share of its reservation.
func (s *Scheduler) admitStarted(id string) {
	s.admitMu.Lock()
	if rec, ok := s.admitted[id]; ok && !rec.started {
		rec.started = true
		s.admitPending--
	}
	s.admitMu.Unlock()
}

// admitRelease returns a task's reservation. Idempotent — every
// terminal transition path calls it, and a task reaches exactly one
// terminal state but possibly through code paths that overlap.
func (s *Scheduler) admitRelease(id string) {
	s.admitMu.Lock()
	if rec, ok := s.admitted[id]; ok {
		delete(s.admitted, id)
		if !rec.started {
			s.admitPending--
		}
		s.admitBacklog -= rec.units
		if len(s.admitted) == 0 {
			// Squash float drift: an idle tier owes exactly zero.
			s.admitBacklog = 0
		}
	}
	s.admitMu.Unlock()
}

// AdmissionSnapshot is the serving tier's state for status endpoints.
// Its key set is part of the /api/status contract.
type AdmissionSnapshot struct {
	Enabled               bool    `json:"enabled"`
	InteractiveSlots      int     `json:"interactive_slots,omitempty"`
	MaxPendingInteractive int     `json:"max_pending_interactive,omitempty"`
	MaxBacklogUnits       float64 `json:"max_backlog_units,omitempty"`
	BatchWorkers          int     `json:"batch_workers"`
	Inflight              int     `json:"inflight"`
	PendingInteractive    int     `json:"pending_interactive"`
	BacklogUnits          float64 `json:"backlog_units"`
	AdmittedInteractive   int64   `json:"admitted_interactive"`
	AdmittedBatch         int64   `json:"admitted_batch"`
	ShedSlots             int64   `json:"shed_slots"`
	ShedQueue             int64   `json:"shed_queue"`
	ShedBacklog           int64   `json:"shed_backlog"`
	DeadlineExceeded      int64   `json:"deadline_exceeded"`
	GraphLoads            int64   `json:"graph_loads"`
}

// AdmissionStats returns the serving tier's current state.
func (s *Scheduler) AdmissionStats() AdmissionSnapshot {
	s.admitMu.Lock()
	snap := AdmissionSnapshot{
		Enabled:               s.cfg.Admission.Enabled(),
		InteractiveSlots:      s.cfg.Admission.InteractiveSlots,
		MaxPendingInteractive: s.cfg.Admission.MaxPendingInteractive,
		MaxBacklogUnits:       s.cfg.Admission.MaxBacklogUnits,
		BatchWorkers:          s.cfg.BatchWorkers,
		Inflight:              len(s.admitted),
		PendingInteractive:    s.admitPending,
		BacklogUnits:          s.admitBacklog,
	}
	s.admitMu.Unlock()
	snap.AdmittedInteractive = s.admittedInt.Value()
	snap.AdmittedBatch = s.admittedBat.Value()
	snap.ShedSlots = s.shedSlots.Value()
	snap.ShedQueue = s.shedQueue.Value()
	snap.ShedBacklog = s.shedBacklog.Value()
	snap.DeadlineExceeded = s.deadlineExc.Value()
	snap.GraphLoads = s.graphLoads.Value()
	return snap
}

// CostStats returns the cached graph statistics for a dataset (zero
// if nothing has loaded it this boot — EstimateCost then prices with
// fallback defaults). Never loads the graph.
func (s *Scheduler) CostStats(dataset string) CostStats {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return s.stats[dataset]
}
