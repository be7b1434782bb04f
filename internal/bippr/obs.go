package bippr

import "github.com/cyclerank/cyclerank-go/internal/obs"

// pkgMetrics are the package's hot-path work counters, registered in
// the process-wide obs registry. They measure algorithmic work —
// pushes and walks are exactly the per-phase cost quantities
// Lofgren's bidirectional analysis balances against each other — and
// are observed once per pass (one histogram observe per reverse push,
// one counter add per walk pass), never per push or per walk, so the
// inner loops stay untouched.
type pkgMetrics struct {
	pushRuns    *obs.Counter
	pushOps     *obs.Counter
	pushSeconds *obs.Histogram

	walkPasses  *obs.Counter
	walks       *obs.Counter
	walkChunks  *obs.Counter
	walkSeconds *obs.Histogram

	reweights     *obs.Counter
	walksAvoided  *obs.Counter
	walksRecorded *obs.Counter
}

func newPkgMetrics() *pkgMetrics {
	r := obs.Default()
	return &pkgMetrics{
		pushRuns:    r.Counter("cyclerank_bippr_reverse_push_runs_total", "Reverse push executions (cache misses that computed an index)."),
		pushOps:     r.Counter("cyclerank_bippr_reverse_push_ops_total", "Individual push operations across all reverse push runs."),
		pushSeconds: r.Histogram("cyclerank_bippr_reverse_push_seconds", "Reverse push duration.", nil),

		walkPasses:  r.Counter("cyclerank_bippr_walk_passes_total", "Forward walk passes (fresh simulation or recording)."),
		walks:       r.Counter("cyclerank_bippr_walks_total", "Forward walks simulated."),
		walkChunks:  r.Counter("cyclerank_bippr_walk_chunks_total", "Walk chunks processed across all passes."),
		walkSeconds: r.Histogram("cyclerank_bippr_walk_pass_seconds", "Forward walk pass duration.", nil),

		reweights:     r.Counter("cyclerank_bippr_endpoint_reweights_total", "Pair queries answered by re-weighting recorded walk endpoints."),
		walksAvoided:  r.Counter("cyclerank_bippr_walks_avoided_total", "Walks not simulated because recorded endpoints were re-weighted."),
		walksRecorded: r.Counter("cyclerank_bippr_walks_recorded_total", "Walks whose endpoints were recorded for reuse."),
	}
}

// metrics is the package's instrumentation handle, registered once at
// init.
var metrics = newPkgMetrics()
