package task

import (
	"fmt"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
)

// Class is a request class: the serving tier a task is admitted,
// queued and executed under. Classes are the platform's answer to the
// paper's observation that per-query cost varies by orders of
// magnitude with parameters (rmax, walk counts, graph size) — a
// server facing heavy traffic must treat a cheap interactive lookup
// and an exact batch recomputation differently or fall over at
// saturation.
//
//   - interactive: latency-sensitive traffic. Queued for the main
//     executor pool. Explicitly selecting the class also applies
//     cheap parameter presets to unset fields (looser rmax, fewer
//     walks, a strict default deadline).
//   - batch: throughput traffic. Queued for a dedicated
//     bounded-concurrency executor pool; parameters keep their
//     precise defaults.
//
// Each class has its own queue, and a query set that does not fit
// either queue it needs is refused whole with 429 + Retry-After before
// any graph is loaded — so a flood of one class never refuses the
// other (see Submit).
//
// A spec that names no class behaves as it always has: plain specs
// route as interactive (but with no parameter presets — results stay
// bit-identical to historical submissions), and multi-query batch
// specs route as batch.
type Class string

// The request classes.
const (
	ClassInteractive Class = "interactive"
	ClassBatch       Class = "batch"
)

// ParseClass validates a class name. The empty string is valid: it
// selects the default routing for the spec shape.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "", ClassInteractive, ClassBatch:
		return Class(s), nil
	}
	return "", fmt.Errorf("task: unknown class %q (valid: interactive, batch)", s)
}

// resolveClass returns the effective class of a spec: the explicit
// one, or the shape default (plain specs are interactive, multi-query
// batches are batch).
func resolveClass(s Spec) Class {
	if s.Class != "" {
		return s.Class
	}
	if s.IsBatch() {
		return ClassBatch
	}
	return ClassInteractive
}

// Interactive-class parameter presets, in the spirit of dash's
// RetrievalProfile: per-class parameter defaults that trade accuracy
// for latency. They fill only fields the submitter left zero, and only
// when the class was EXPLICITLY requested — a spec with no class keeps
// the engine defaults, so historical submissions stay bit-identical.
const (
	// InteractiveRMax is the interactive reverse-push residual
	// threshold: 10x looser than bippr's default, ~10x less push work.
	InteractiveRMax = 1e-3
	// InteractiveWalks is the interactive walk budget: a fifth of the
	// engine default, still ~3 significant digits on pair estimates.
	InteractiveWalks = 2000
	// InteractiveTimeout is the interactive default deadline. Strict by
	// design: interactive traffic would rather fail fast and retry than
	// queue behind itself.
	InteractiveTimeout = 2 * time.Second
)

// ApplyParams fills class parameter presets into zero fields of p.
// Only the interactive class has presets; every other class returns p
// unchanged.
func (c Class) ApplyParams(p algo.Params) algo.Params {
	if c != ClassInteractive {
		return p
	}
	if p.RMax == 0 {
		p.RMax = InteractiveRMax
	}
	if p.Walks == 0 && p.Eps == 0 {
		p.Walks = InteractiveWalks
	}
	return p
}

// DefaultTimeout is the class's default per-request deadline, applied
// when the spec sets none. Zero means "inherit the scheduler's
// TaskTimeout only".
func (c Class) DefaultTimeout() time.Duration {
	if c == ClassInteractive {
		return InteractiveTimeout
	}
	return 0
}

// applyClassPresets normalizes an explicitly classed spec: parameter
// presets into every query's zero fields and the class default
// deadline into an unset TimeoutMS. Specs with no explicit class pass
// through untouched.
func applyClassPresets(s Spec) Spec {
	if s.Class == "" {
		return s
	}
	s.Params = s.Class.ApplyParams(s.Params)
	if len(s.Queries) > 0 {
		queries := make([]SubSpec, len(s.Queries))
		for i, q := range s.Queries {
			q.Params = s.Class.ApplyParams(q.Params)
			queries[i] = q
		}
		s.Queries = queries
	}
	if s.TimeoutMS == 0 {
		if d := s.Class.DefaultTimeout(); d > 0 {
			s.TimeoutMS = d.Milliseconds()
		}
	}
	return s
}
