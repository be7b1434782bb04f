package task

import (
	"fmt"
)

// queueDepth is each tier's queue capacity: how many of its tasks may
// wait for an executor. It is the serving tier's one overload bound —
// Submit refuses a query set whole when a tier's queue cannot take all
// of the set's tasks of that tier.
const queueDepth = 128

// ShedError reports a query set refused because a tier's queue has no
// room for all of its tasks of that tier right now. Nothing of the set
// was registered. The server maps it to 429 Too Many Requests with
// Retry-After: 1.
type ShedError struct {
	// Class names the tier whose queue is full.
	Class Class
	// Tasks is what the set asks of that queue; Free is what it has.
	Tasks, Free int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("task: shed (%s queue full): the query set needs %d slots, %d free; retry later",
		e.Class, e.Tasks, e.Free)
}

// OversizeError reports a query set with more tasks for one tier than
// that tier's queue holds: it would not fit even an idle server, so
// retrying is pointless. The server maps it to 400 Bad Request without
// a Retry-After header.
type OversizeError struct {
	Class Class
	Tasks int
}

func (e *OversizeError) Error() string {
	return fmt.Sprintf("task: query set has %d %s tasks, more than the %d the %s queue holds; it can never be admitted",
		e.Tasks, e.Class, queueDepth, e.Class)
}

// AdmissionSnapshot is the serving tier's state for status endpoints.
// Its key set is part of the /api/status contract.
type AdmissionSnapshot struct {
	BatchWorkers        int   `json:"batch_workers"`
	AdmittedInteractive int64 `json:"admitted_interactive"`
	AdmittedBatch       int64 `json:"admitted_batch"`
	ShedQueue           int64 `json:"shed_queue"`
	DeadlineExceeded    int64 `json:"deadline_exceeded"`
	GraphLoads          int64 `json:"graph_loads"`
}

// AdmissionStats returns the serving tier's current state.
func (s *Scheduler) AdmissionStats() AdmissionSnapshot {
	return AdmissionSnapshot{
		BatchWorkers:        s.cfg.BatchWorkers,
		AdmittedInteractive: s.admittedInt.Value(),
		AdmittedBatch:       s.admittedBat.Value(),
		ShedQueue:           s.shedQueue.Value(),
		DeadlineExceeded:    s.deadlineExc.Value(),
		GraphLoads:          s.graphLoads.Value(),
	}
}
