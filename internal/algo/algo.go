// Package algo defines the common Algorithm interface all relevance
// algorithms implement, a parameter schema shared by the platform's
// API, and a registry through which new algorithms can be plugged in —
// the extension point the demo paper advertises ("new algorithms can
// be easily added").
package algo

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// Params is the union of all parameters accepted by the built-in
// algorithms; each algorithm validates and uses the subset it
// understands, ignoring the rest. A zero value selects every default.
type Params struct {
	// Source is the label of the reference node; required by
	// personalized algorithms, ignored by global ones.
	Source string `json:"source,omitempty"`
	// K is CycleRank's maximum cycle length (default 3).
	K int `json:"k,omitempty"`
	// Scoring is CycleRank's scoring function name: exp, lin, quad or
	// const (default exp).
	Scoring string `json:"scoring,omitempty"`
	// Alpha is the damping / transition probability of the PageRank
	// family (default 0.85).
	Alpha float64 `json:"alpha,omitempty"`
	// Tol is the power-iteration convergence tolerance (default 1e-10).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps power iterations (default 200).
	MaxIter int `json:"max_iter,omitempty"`
	// Epsilon is the forward-push residual threshold (default 1e-8).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Walks is the random-walk count per seed of the Monte-Carlo and
	// bidirectional engines (default 10000).
	Walks int `json:"walks,omitempty"`
	// Seed is the random-walk RNG seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Target is the label of the target node; required by
	// target-relevance algorithms (ppr-target, bippr-pair), ignored by
	// the rest.
	Target string `json:"target,omitempty"`
	// RMax is the reverse-push residual threshold of the bidirectional
	// engines (default 1e-4).
	RMax float64 `json:"rmax,omitempty"`
	// Eps is the requested additive error of a bippr-pair walk
	// correction; when positive, the walk count is derived from RMax
	// and Eps instead of Walks (the adaptive budget of Lofgren's
	// bidirectional analysis).
	Eps float64 `json:"eps,omitempty"`
	// Workers sizes the bidirectional engines' walk worker pool
	// (bounded by GOMAXPROCS; default 1). Estimates are bit-identical
	// for every value — sharding only changes latency.
	Workers int `json:"workers,omitempty"`
	// WalkReuse opts a bippr-pair query into the walk-endpoint cache:
	// repeated queries from one source (against different targets)
	// re-weight recorded walk endpoints instead of re-walking.
	// Estimates are bit-identical either way. Default off.
	WalkReuse bool `json:"walk_reuse,omitempty"`
}

// String renders the parameters compactly for logs and task listings.
func (p Params) String() string {
	s := ""
	if p.Source != "" {
		s += fmt.Sprintf("source=%q ", p.Source)
	}
	if p.Target != "" {
		s += fmt.Sprintf("target=%q ", p.Target)
	}
	if p.K != 0 {
		s += fmt.Sprintf("k=%d ", p.K)
	}
	if p.Scoring != "" {
		s += fmt.Sprintf("sigma=%s ", p.Scoring)
	}
	if p.Alpha != 0 {
		s += fmt.Sprintf("alpha=%g ", p.Alpha)
	}
	if p.RMax != 0 {
		s += fmt.Sprintf("rmax=%g ", p.RMax)
	}
	if p.Eps != 0 {
		s += fmt.Sprintf("eps=%g ", p.Eps)
	}
	if p.Workers != 0 {
		s += fmt.Sprintf("workers=%d ", p.Workers)
	}
	if p.WalkReuse {
		s += "walk-reuse "
	}
	if s == "" {
		return "defaults"
	}
	return s[:len(s)-1]
}

// Validate rejects parameter values no built-in algorithm accepts, so
// the task builder can refuse a bad query at Add time instead of
// failing it after scheduling. Zero values are always valid (they
// select defaults); algorithm-specific constraints (e.g. unknown
// scoring names) still surface at Run time.
func (p Params) Validate() error {
	if p.K < 0 {
		return fmt.Errorf("algo: k=%d must not be negative", p.K)
	}
	if p.Alpha < 0 || p.Alpha >= 1 {
		return fmt.Errorf("algo: alpha=%g outside [0,1)", p.Alpha)
	}
	if p.Tol < 0 {
		return fmt.Errorf("algo: tol=%g must not be negative", p.Tol)
	}
	if p.MaxIter < 0 {
		return fmt.Errorf("algo: max_iter=%d must not be negative", p.MaxIter)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("algo: epsilon=%g must not be negative", p.Epsilon)
	}
	if p.Walks < 0 {
		return fmt.Errorf("algo: walks=%d must not be negative", p.Walks)
	}
	if p.Walks > bippr.MaxWalks {
		return fmt.Errorf("algo: walks=%d exceeds the cap %d", p.Walks, bippr.MaxWalks)
	}
	if p.RMax < 0 {
		return fmt.Errorf("algo: rmax=%g must not be negative", p.RMax)
	}
	if p.Eps < 0 {
		return fmt.Errorf("algo: eps=%g must not be negative", p.Eps)
	}
	if p.Workers < 0 {
		return fmt.Errorf("algo: workers=%d must not be negative", p.Workers)
	}
	return nil
}

// ResolveSource maps p.Source to a node of g, reporting a descriptive
// error when the label is missing or unknown.
func (p Params) ResolveSource(g *graph.Graph) (graph.NodeID, error) {
	if p.Source == "" {
		return 0, fmt.Errorf("algo: parameter %q is required", "source")
	}
	id, ok := g.NodeByLabel(p.Source)
	if !ok {
		return 0, fmt.Errorf("algo: source node %q not found in graph", p.Source)
	}
	return id, nil
}

// ResolveTarget maps p.Target to a node of g, reporting a descriptive
// error when the label is missing or unknown.
func (p Params) ResolveTarget(g *graph.Graph) (graph.NodeID, error) {
	if p.Target == "" {
		return 0, fmt.Errorf("algo: parameter %q is required", "target")
	}
	id, ok := g.NodeByLabel(p.Target)
	if !ok {
		return 0, fmt.Errorf("algo: target node %q not found in graph", p.Target)
	}
	return id, nil
}

// Algorithm is a personalized or global relevance algorithm runnable
// by the platform.
type Algorithm interface {
	// Name is the unique registry key, e.g. "cyclerank".
	Name() string
	// Description is a one-line human-readable summary shown by the
	// UI and CLI.
	Description() string
	// NeedsSource reports whether the algorithm requires a reference
	// node (Params.Source).
	NeedsSource() bool
	// Run executes the algorithm on g.
	Run(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error)
}

// TargetAware is the optional interface of algorithms that rank
// relevance TO a node and therefore require Params.Target. It is
// separate from Algorithm so that existing implementations (including
// third-party ones plugged into the registry) keep compiling
// unchanged.
type TargetAware interface {
	// NeedsTarget reports whether the algorithm requires a target node
	// (Params.Target).
	NeedsTarget() bool
}

// NeedsTarget reports whether a requires Params.Target, tolerating
// algorithms that predate the TargetAware interface.
func NeedsTarget(a Algorithm) bool {
	t, ok := a.(TargetAware)
	return ok && t.NeedsTarget()
}

// Registry is a concurrency-safe collection of algorithms.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Algorithm
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Algorithm)}
}

// Register adds a to the registry, rejecting empty and duplicate
// names.
func (r *Registry) Register(a Algorithm) error {
	if a == nil || a.Name() == "" {
		return fmt.Errorf("algo: cannot register algorithm with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[a.Name()]; dup {
		return fmt.Errorf("algo: algorithm %q already registered", a.Name())
	}
	r.byName[a.Name()] = a
	return nil
}

// Get resolves a registered algorithm by name.
func (r *Registry) Get(name string) (Algorithm, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (available: %v)", name, r.namesLocked())
	}
	return a, nil
}

// Names returns the registered algorithm names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns the registered algorithms sorted by name.
func (r *Registry) All() []Algorithm {
	r.mu.RLock()
	defer r.mu.RUnlock()
	algos := make([]Algorithm, 0, len(r.byName))
	for _, name := range r.namesLocked() {
		algos = append(algos, r.byName[name])
	}
	return algos
}

// memos returns the distinct score-vector memos of the registered
// built-ins, in name order.
func (r *Registry) memos() []*vectorMemo {
	var out []*vectorMemo
	for _, a := range r.All() {
		if f, ok := a.(Func); ok && f.memo != nil && !slices.Contains(out, f.memo) {
			out = append(out, f.memo)
		}
	}
	return out
}

// ForgetGraph drops every score vector the registered built-ins hold
// for g. Whoever replaces or deletes a dataset calls it with the
// graph it stops handing out: a held vector keeps its graph
// reachable, so without the call a replaced dataset stays resident
// until its vectors happen to be evicted. That is also what happens to
// a built-in registered inside another Algorithm (a decorator): its
// memo is out of the registry's reach.
func (r *Registry) ForgetGraph(g *graph.Graph) {
	for _, m := range r.memos() {
		m.forget(g)
	}
}

// MetricsRegistries returns the metrics of the registered built-ins'
// score-vector memos (`cache="score_vector"`), for merging into a
// scrape endpoint.
func (r *Registry) MetricsRegistries() []*obs.Registry {
	var out []*obs.Registry
	for _, m := range r.memos() {
		out = append(out, m.cache.MetricsRegistry())
	}
	return out
}

// Func adapts a function (plus metadata) into an Algorithm, the
// easiest path for plugging in custom algorithms.
type Func struct {
	AlgoName string
	AlgoDesc string
	Source   bool
	Target   bool
	RunFunc  func(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error)

	// memo is the score-vector memo a PageRank-family built-in
	// resolves through; through it a Registry reaches the memo of the
	// built-ins registered with it (see Registry.ForgetGraph).
	memo *vectorMemo
}

// Name implements Algorithm.
func (f Func) Name() string { return f.AlgoName }

// Description implements Algorithm.
func (f Func) Description() string { return f.AlgoDesc }

// NeedsSource implements Algorithm.
func (f Func) NeedsSource() bool { return f.Source }

// NeedsTarget implements TargetAware.
func (f Func) NeedsTarget() bool { return f.Target }

// Run implements Algorithm.
func (f Func) Run(ctx context.Context, g *graph.Graph, p Params) (*ranking.Result, error) {
	if f.RunFunc == nil {
		return nil, fmt.Errorf("algo: %s has no run function", f.AlgoName)
	}
	return f.RunFunc(ctx, g, p)
}
