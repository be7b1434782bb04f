package main

// metricDef is one reported metric. bound is the relative worsening
// that counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a client or operator of crserver sees. Every
// workload reports all of them; BENCHMARK.json repeats the list.
//
// A metric that two runs of the same binary cannot repeat within 0.10
// (the -aa check) does not stay here with a wider bound: it is demoted
// to a per-layer diagnostic.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"p50_ms", "ms", "lower", 0.10},
	{"p90_ms", "ms", "lower", 0.10},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.10},
	{"rss_mb", "MB", "lower", 0.10},
	{"disk_mb", "MB", "lower", 0.02},
}

// values returns the end-to-end metrics by name: as reported, i.e.
// with the timing ones corrected for the box's speed, and as the clock
// gave them.
func (r *e2eResult) values() (reported, raw map[string]float64) {
	reported = map[string]float64{
		"setup_s":       r.setupS,
		"p50_ms":        r.p50MS,
		"p90_ms":        r.p90MS,
		"ops_per_s":     r.opsPerS,
		"cpu_ms_per_op": r.cpuMSPerOp,
		"rss_mb":        r.rssMB,
		"disk_mb":       r.diskMB,
	}
	raw = map[string]float64{
		"setup_s":       r.raw.setupS,
		"p50_ms":        r.raw.p50MS,
		"p90_ms":        r.raw.p90MS,
		"ops_per_s":     r.raw.opsPerS,
		"cpu_ms_per_op": r.raw.cpuMSPerOp,
	}
	return reported, raw
}
