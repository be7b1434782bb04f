package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// contractLine is the JSON object the benchmark contract wants as the
// last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run writes to benchmark/out: result.json after an
// end-to-end run, trace-result.json after a traced one. The committed
// baseline.json and baseline-trace.json are one full run's copies.
type report struct {
	Machine struct {
		CPU    string `json:"cpu"`
		NumCPU int    `json:"nproc"`
		Kernel string `json:"kernel"`
		Go     string `json:"go"`
		DataFS string `json:"data_dir_filesystem"`
	} `json:"machine"`
	Seed      int64                    `json:"seed"`
	Seconds   int                      `json:"seconds"`
	Workloads map[string]*workloadStat `json:"workloads"`
}

type workloadStat struct {
	Ops         int                `json:"ops_attempted"`
	Failed      int                `json:"ops_failed"`
	Samples     int                `json:"samples,omitempty"`
	EndToEnd    map[string]float64 `json:"end_to_end,omitempty"`
	Uncorrected map[string]float64 `json:"end_to_end_uncorrected,omitempty"`
	SlowCompute float64            `json:"reference_compute_slowdown,omitempty"`
	SlowSystem  float64            `json:"reference_system_slowdown,omitempty"`
	SetupBoots  []float64          `json:"setup_boots_uncorrected_s,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	SpanShares  map[string]float64 `json:"self_time_share_by_span,omitempty"`
	LayerShares map[string]float64 `json:"self_time_share_by_layer,omitempty"`
}

func newReport(seed int64, seconds int, dataRoot string) *report {
	rep := &report{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadStat{}}
	rep.Machine.CPU = cpuModel()
	rep.Machine.NumCPU = runtime.NumCPU()
	rep.Machine.Go = runtime.Version()
	rep.Machine.DataFS = fsOf(dataRoot)
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		rep.Machine.Kernel = strings.TrimSpace(string(rel))
	}
	return rep
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func (rep *report) stat(name string) *workloadStat {
	if rep.Workloads[name] == nil {
		rep.Workloads[name] = &workloadStat{}
	}
	return rep.Workloads[name]
}

func (rep *report) addE2E(r *e2eResult) {
	st := rep.stat(r.workload)
	st.Ops, st.Failed, st.Samples = r.attempted, r.failed, r.samples
	st.SetupBoots = r.setupBoots
	st.EndToEnd, st.Uncorrected = r.values()
	st.SlowCompute, st.SlowSystem = r.slowCompute, r.slowSystem
}

func (rep *report) addTrace(r *traceResult) {
	st := rep.stat(r.workload)
	st.Ops, st.Failed = r.attempted, r.failed
	st.PerLayer, st.SpanShares, st.LayerShares = r.values, r.shares, r.layerShares
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printFailures(failures []opFailure) {
	for _, f := range failures {
		fmt.Printf("   failed op %d: %v\n", f.index, f.err)
	}
}

func printContract(failed, attempted int, metrics map[string]contractMetric) {
	line, err := json.Marshal(contractLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(line))
}

func warnNoise(drift float64) {
	if drift > canaryWarn {
		fmt.Printf("   WARNING: the load generator's own probes slowed by %.0f%% across this run; the box was not quiet\n", (drift-1)*100)
	}
}

func printE2E(r *e2eResult) {
	fmt.Printf("== %s  seed %d  ops_attempted %d  ops_failed %d  latency samples %d  measured for %.1fs\n",
		r.workload, r.seed, r.attempted, r.failed, r.samples, r.measuredFor.Seconds())
	printFailures(r.failures)
	reported, raw := r.values()
	m := make(map[string]contractMetric, len(endToEnd))
	for _, def := range endToEnd {
		m[def.name] = contractMetric{Value: reported[def.name], Unit: def.unit}
		fmt.Printf("   %-16s %12.4f %s", def.name, reported[def.name], def.unit)
		if v, ok := raw[def.name]; ok {
			fmt.Printf("   (uncorrected %.4f)", v)
		}
		fmt.Println()
	}
	fmt.Printf("   speed reference: %d readings; during the measured phase the compute half ran %.3f× and the system half %.3f× its quiet time\n",
		r.readings, r.slowCompute, r.slowSystem)
	fmt.Printf("   set-up boots %.3f s uncorrected; canary spin %.2f ms, fs probe %.2f ms, drift %.3f\n",
		r.setupBoots, r.canary.before.spinMS, r.canary.before.fsMS, r.canary.drift())
	warnNoise(r.canary.drift())
	printContract(r.failed, r.attempted, m)
}

// bySize returns the keys of shares, largest share first.
func bySize(shares map[string]float64) []string {
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	return keys
}

func printTrace(r *traceResult) {
	fmt.Printf("== %s  seed %d  traced run  ops_attempted %d  ops_failed %d\n", r.workload, r.seed, r.attempted, r.failed)
	printFailures(r.failures)
	m := make(map[string]contractMetric, len(perLayer))
	for _, def := range perLayer {
		m[def.name] = contractMetric{Value: r.values[def.name], Unit: def.unit}
		fmt.Printf("   %-32s %12.4f %s\n", def.name, r.values[def.name], def.unit)
	}
	fmt.Printf("   op p50: %.4f ms over the wire, %.4f ms in-process, %.4f ms in-process traced\n", r.p50s[0], r.p50s[1], r.p50s[2])
	fmt.Println("   self-time share by layer (of all spans below the operation roots):")
	for _, l := range bySize(r.layerShares) {
		fmt.Printf("   %-32s %11.1f%%\n", l, 100*r.layerShares[l])
	}
	fmt.Println("   self-time share by span:")
	for _, n := range bySize(r.shares) {
		fmt.Printf("   %-32s %11.1f%%\n", n, 100*r.shares[n])
	}
	warnNoise(r.values["canary.drift_ratio"])
	printContract(r.failed, r.attempted, m)
}
