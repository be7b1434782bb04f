// Package obs is the platform's dependency-free observability
// subsystem: a metrics registry (counters, gauges, histograms with
// fixed exponential latency buckets) plus a lightweight span tracer
// that attaches nested per-phase timings to a request context.
//
// The package is the one sensor layer every serving component reports
// through, so an operator has exactly one place to look:
//
//   - Metric primitives (Counter, Gauge, Histogram) are plain structs
//     over atomics — allocation-free and lock-free on the hot path —
//     that exist independently of any registry. A component's stats
//     struct holds the metric itself; registering it only adds an
//     export name. There is therefore exactly one source of truth per
//     number: the JSON status rows and the Prometheus exposition read
//     the same atomic.
//
//   - A Registry maps Prometheus family names (plus fixed label sets)
//     to metrics and renders them in the text exposition format
//     (WritePrometheus). Default() is the process-wide registry that
//     package-level hot-path instrumentation (bippr's push and walk
//     counters) registers into; components with per-instance state
//     (caches, schedulers, stores) each own a private registry, and a
//     scrape endpoint merges any number of them into one exposition.
//
//   - Spans (StartSpan) record where a request's milliseconds went.
//     Tracing is sampled per request: StartSpan is a no-op returning a
//     nil (safe) span unless a trace was opened on the context with
//     NewTrace, so untraced hot paths pay one context lookup and
//     nothing else.
//
// Registration is get-or-register: asking twice for the same family
// name and label set returns the same metric, so package init order
// and repeated component construction cannot panic on duplicates.
// Kind or help mismatches on an existing series are programming
// errors and do panic.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value
// is ready to use.
type Counter struct{ v atomic.Int64 }

// NewCounter returns a standalone counter (register it with
// Registry.Counter to export it, or hold it directly).
func NewCounter() *Counter { return &Counter{} }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic; callers must not pass negative
// deltas.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use.
type Gauge struct{ bits atomic.Uint64 }

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (compare-and-swap loop; safe for concurrent use).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Kind is a metric family's Prometheus type.
type Kind string

// Metric family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// metric is anything the registry can render: one of the concrete
// primitives or a read-at-scrape func.
type metric interface{ kind() Kind }

func (c *Counter) kind() Kind   { return KindCounter }
func (g *Gauge) kind() Kind     { return KindGauge }
func (h *Histogram) kind() Kind { return KindHistogram }

// funcMetric samples a value at scrape time — the bridge for numbers
// that live in an existing mutex-guarded structure (an LRU's entry
// count, a channel's depth) and would be racy or redundant to mirror
// into an atomic.
type funcMetric struct{ fn func() float64 }

func (funcMetric) kind() Kind { return KindGauge }

// series is one exported time series: a metric plus its rendered
// label set.
type series struct {
	labels string // canonical `k="v",k2="v2"` form, possibly empty
	m      metric
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	k      Kind
	series []*series
}

// Registry maps metric family names to metrics and renders the
// Prometheus text exposition. It is safe for concurrent use; metric
// reads and writes never take the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry package-level hot-path
// instrumentation registers into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// validName matches the Prometheus metric and label name grammar.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// renderLabels canonicalizes alternating key/value pairs into the
// exposition form, sorted by key so the same logical label set always
// produces the same series identity. Invalid names and odd-length
// pairs panic: label sets are compile-time constants at call sites.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs %q", pairs))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if !validName.MatchString(pairs[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", pairs[i]))
		}
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes quotes, backslashes and newlines Go-style, which
		// coincides with the exposition-format label escaping rules.
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

// register resolves (name, labels) to its metric, creating it with
// mk on first sight. A kind mismatch against an existing family
// panics — two call sites disagreeing on what a name means is a
// programming error that would corrupt the exposition.
func (r *Registry) register(name, help string, k Kind, labels []string, mk func() metric) metric {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, k: k}
		r.families[name] = f
	} else if f.k != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.k))
	}
	for _, s := range f.series {
		if s.labels == ls {
			if _, isFunc := s.m.(funcMetric); isFunc {
				// Func metrics re-sample live state; a re-registration
				// (a component rebuilt in-process) replaces the stale
				// closure rather than freezing the first one forever.
				s.m = mk()
			}
			return s.m
		}
	}
	m := mk()
	f.series = append(f.series, &series{labels: ls, m: m})
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return m
}

// Counter returns the counter registered under name with the given
// alternating label key/value pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, KindCounter, labels, func() metric { return NewCounter() }).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, KindGauge, labels, func() metric { return NewGauge() }).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (nil selects
// LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.register(name, help, KindHistogram, labels, func() metric { return NewHistogram(bounds) }).(*Histogram)
}

// GaugeFunc registers a gauge whose value is sampled by fn at scrape
// time. Re-registering the same series replaces the sampler (the
// newest component instance wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, KindGauge, labels, func() metric { return funcMetric{fn} })
}

// AttachCounter exports an existing Counter under name — the
// registration path for a counter embedded in a component's stats
// structure, keeping that structure the single source of truth. If
// the series already exists the existing metric is kept.
func (r *Registry) AttachCounter(name, help string, c *Counter, labels ...string) {
	r.register(name, help, KindCounter, labels, func() metric { return c })
}

// Handler returns an http.Handler serving this registry (plus any
// extra registries) in the Prometheus text exposition format — the
// GET /metrics endpoint.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, regs...)
	})
}
