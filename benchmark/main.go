// Command benchmark is the repository's end-to-end benchmark: it
// builds cmd/crserver, boots the real binary as a subprocess, drives
// it over loopback HTTP from one closed-loop connection with seeded
// operation streams, validates every answer, and reports what the
// client observed. See README.md in this directory for the workloads,
// the metrics and the decisions behind them.
//
// Usage, from the repository root:
//
//	go run ./benchmark -seed 1                      # all four workloads
//	go run ./benchmark -workload pair-warm -seed 1  # one workload
//	go run ./benchmark -workload pair-warm -trace 1 # its per-layer trace
//	go run ./benchmark -aa                          # A/A self-check
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// outDir receives everything a run leaves behind — the crserver
// binary, server logs, trace.json, the result files — and, while a
// run lasts, whatever must sit on the real disk. benchmark/.gitignore
// names it.
const outDir = "benchmark/out"

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four in turn)")
		seed         = flag.Int64("seed", 1, "seed of the operation streams")
		seconds      = flag.Int("seconds", 20, "nominal length of a measured phase; sets the fixed operation counts")
		trace        = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
		aa           = flag.Bool("aa", false, "run the suite twice on one build and check the two against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		selected = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, selected, *seed, *seconds, *trace == 1, *aa)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	os.Exit(code)
}

// run returns the exit code: 0 only when every operation of every
// selected workload succeeded and validated (and, with -aa, the two
// passes agree).
func run(ctx context.Context, selected []workload, seed int64, seconds int, trace, aa bool) (int, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	bin, err := buildServer(ctx, outDir)
	if err != nil {
		return 1, err
	}
	dataRoot, err := pickDataRoot(outDir)
	if err != nil {
		return 1, err
	}
	// Data directories are removed boot by boot; this also catches what
	// an interrupted boot left behind.
	defer os.RemoveAll(dataRoot)
	diskRoot := filepath.Join(outDir, "disk")
	if err := os.MkdirAll(diskRoot, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(diskRoot)
	e := env{bin: bin, dataRoot: dataRoot, diskRoot: diskRoot, outDir: outDir}

	r, err := newRefs()
	if err != nil {
		return 1, err
	}
	rep := newReport(seed, seconds, dataRoot)
	fmt.Printf("machine: %s; %d CPUs; kernel %s; %s; data dirs on %s (%s)\n",
		rep.Machine.CPU, rep.Machine.NumCPU, rep.Machine.Kernel, rep.Machine.Go, rep.Machine.DataFS, dataRoot)

	code := 0
	switch {
	case aa:
		ok, err := runAA(ctx, e, selected, r, seed, seconds, rep)
		if err != nil {
			return 1, err
		}
		if !ok {
			code = 1
		}
	case trace:
		var traces []traceFile
		for _, w := range selected {
			res, err := runTrace(ctx, e, w, r, seed, seconds)
			if err != nil {
				return 1, err
			}
			traces = append(traces, traceFile{Workload: w.name, Seed: seed, Spans: res.spans})
			rep.addTrace(res)
			printTrace(res)
			if res.failed > 0 {
				code = 1
			}
		}
		if err := writeJSON(filepath.Join(outDir, "trace.json"), traces); err != nil {
			return 1, err
		}
	default:
		for _, w := range selected {
			res, err := runReported(ctx, e, w, r, seed, seconds)
			if err != nil {
				return 1, err
			}
			rep.addE2E(res)
			printE2E(res)
			if res.failed > 0 {
				code = 1
			}
		}
	}
	name := "result.json"
	if trace {
		name = "trace-result.json"
	}
	if err := writeJSON(filepath.Join(outDir, name), rep); err != nil {
		return 1, err
	}
	return code, nil
}

// runReported is the run whose numbers are reported: the workload's
// full operation count after coldBoots set-ups.
func runReported(ctx context.Context, e env, w workload, r *refs, seed int64, seconds int) (*e2eResult, error) {
	n, warm := w.counts(seconds)
	return runE2E(ctx, e, w, r, seed, n, warm, coldBoots, time.Duration(overrunFactor*seconds)*time.Second)
}

// pickDataRoot chooses where the servers' data directories live:
// tmpfs when the box has a roomy /dev/shm, else the output directory.
// Flush cost on a shared virtual disk is not reproducible — it drifts
// with what the disk did a minute earlier — so it is kept out of the
// gated metrics and reported by the traced run's *_disk_ms readings.
func pickDataRoot(fallback string) (string, error) {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if err := syscall.Statfs(shm, &st); err == nil && fsName(int64(st.Type)) == "tmpfs" &&
		uint64(st.Bavail)*uint64(st.Bsize) >= 2<<30 {
		if dir, err := os.MkdirTemp(shm, "cyclerank-bench-"); err == nil {
			return dir, nil
		}
	}
	dir := filepath.Join(fallback, "data")
	return dir, os.MkdirAll(dir, 0o755)
}

func fsName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs 0x%x", magic)
}

func fsOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	return fsName(int64(st.Type))
}
