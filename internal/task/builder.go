package task

import (
	"fmt"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// LoaderFunc resolves a dataset name to its graph. The scheduler uses
// it to fetch datasets from the catalog or the datastore.
type LoaderFunc func(name string) (*graph.Graph, error)

// Builder assembles and validates a query set before submission — the
// demo's Task Builder component. Validation happens at Add time so the
// UI can reject an invalid query immediately rather than after
// scheduling.
type Builder struct {
	registry *algo.Registry
	exists   func(dataset string) bool
	specs    []Spec
}

// NewBuilder returns a Task Builder validating algorithms against the
// registry and dataset names against the exists predicate (nil means
// any dataset name is accepted and failures surface at load time).
func NewBuilder(registry *algo.Registry, exists func(dataset string) bool) *Builder {
	return &Builder{registry: registry, exists: exists}
}

// Add validates and appends one task spec to the query set. Batch
// specs (Spec.Queries non-empty) validate every subquery with the
// same front-loaded rules as a plain spec, and are normalized so each
// stored SubSpec carries its resolved algorithm name.
func (b *Builder) Add(s Spec) error {
	if s.Dataset == "" {
		return fmt.Errorf("task: spec has no dataset")
	}
	if b.exists != nil && !b.exists(s.Dataset) {
		return fmt.Errorf("task: unknown dataset %q", s.Dataset)
	}
	if _, err := ParseClass(string(s.Class)); err != nil {
		return err
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("task: timeout_ms=%d must not be negative", s.TimeoutMS)
	}
	// Class presets are applied before validation so what is validated
	// (and later executed and reported) is exactly the normalized spec.
	s = applyClassPresets(s)
	if s.IsBatch() {
		return b.addBatch(s)
	}
	// Parallelism only shapes a batch's intra-task pool; accepting it
	// on a plain spec would silently promise concurrency that does not
	// exist.
	if s.Parallelism != 0 {
		return fmt.Errorf("task: parallelism applies to batch submissions (queries), not single tasks")
	}
	if err := b.checkQuery(s.Algorithm, s.Params); err != nil {
		return fmt.Errorf("task: %w", err)
	}
	b.specs = append(b.specs, s)
	return nil
}

// addBatch validates a batch spec. The dataset has already been
// checked; each subquery resolves its algorithm (falling back to the
// batch default) and passes the same validation as a standalone spec.
func (b *Builder) addBatch(s Spec) error {
	if len(s.Queries) > MaxBatchQueries {
		return fmt.Errorf("task: batch has %d queries, limit %d", len(s.Queries), MaxBatchQueries)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("task: parallelism=%d must not be negative", s.Parallelism)
	}
	// Top-level params are rejected rather than silently ignored: a
	// submitter who set them expects them to apply to every query,
	// and would otherwise get plausible results computed with the
	// defaults instead.
	if s.Params != (algo.Params{}) {
		return fmt.Errorf("task: batch params are per-query; set params on each entry of queries, not on the batch")
	}
	// Normalize into a copy: resolved algorithm names, detached from
	// the caller's slice.
	queries := make([]SubSpec, len(s.Queries))
	for i, q := range s.Queries {
		if q.Algorithm == "" {
			q.Algorithm = s.Algorithm
		}
		if q.Algorithm == "" {
			return fmt.Errorf("task: batch query %d names no algorithm and the batch has no default", i)
		}
		if q.TimeoutMS < 0 {
			return fmt.Errorf("task: batch query %d: timeout_ms=%d must not be negative", i, q.TimeoutMS)
		}
		if err := b.checkQuery(q.Algorithm, q.Params); err != nil {
			return fmt.Errorf("task: batch query %d: %w", i, err)
		}
		queries[i] = q
	}
	s.Queries = queries
	b.specs = append(b.specs, s)
	return nil
}

// checkQuery applies the front-loaded validation shared by plain
// specs and batch subqueries; callers add the "task:" context.
func (b *Builder) checkQuery(algorithm string, p algo.Params) error {
	a, err := b.registry.Get(algorithm)
	if err != nil {
		return err
	}
	if a.NeedsSource() && p.Source == "" {
		return fmt.Errorf("algorithm %q requires a source node", algorithm)
	}
	if algo.NeedsTarget(a) && p.Target == "" {
		return fmt.Errorf("algorithm %q requires a target node", algorithm)
	}
	return p.Validate()
}

// Len returns the number of queued specs.
func (b *Builder) Len() int { return len(b.specs) }

// Specs returns a copy of the current query set.
func (b *Builder) Specs() []Spec {
	out := make([]Spec, len(b.specs))
	copy(out, b.specs)
	return out
}
