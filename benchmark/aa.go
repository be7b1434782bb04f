package main

import (
	"context"
	"fmt"
	"math"
)

// runAA runs every selected workload twice, back to back on the same
// build and the same seed, and prints both values of every end-to-end
// metric with their relative difference and the metric's bound. Two
// runs of the same code differ only by noise, so a pair further apart
// than its bound, in either direction, means the benchmark cannot
// resolve that bound: the check fails and the metric must be demoted
// to a per-layer diagnostic, never given a wider bound.
func runAA(ctx context.Context, e env, selected []workload, r *refs, seed int64, seconds int, rep *report) (bool, error) {
	var passes [2][]*e2eResult
	for pass := range passes {
		for _, w := range selected {
			res, err := runReported(ctx, e, w, r, seed, seconds)
			if err != nil {
				return false, err
			}
			printE2E(res)
			passes[pass] = append(passes[pass], res)
		}
	}
	ok := true
	fmt.Println("\n| workload | metric | run A | run B | B vs A | bound | |")
	fmt.Println("|---|---|---:|---:|---:|---:|---|")
	for i, w := range selected {
		a, b := passes[0][i], passes[1][i]
		rep.addE2E(b)
		ma, _ := a.values()
		mb, _ := b.values()
		for _, def := range endToEnd {
			va, vb := ma[def.name], mb[def.name]
			diff := (vb - va) / va
			verdict := "ok"
			if math.Abs(diff) > def.bound {
				verdict, ok = "BEYOND BOUND", false
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.2f%% | %.0f%% | %s |\n",
				w.name, def.name, va, vb, 100*diff, 100*def.bound, verdict)
		}
		if a.failed+b.failed > 0 {
			ok = false
		}
		fmt.Printf("| %s | ops_failed | %d | %d | | 0 | |\n", w.name, a.failed, b.failed)
	}
	return ok, nil
}
