// Command cyclerank runs relevance algorithms on a graph and prints
// the top-ranked nodes.
//
// Usage:
//
//	cyclerank -algo cyclerank -dataset enwiki-2018 -source "Fake news" -k 3
//	cyclerank -algo ppr -file mygraph.csv -source Alice -alpha 0.3 -top 10
//	cyclerank -algos cyclerank,ppr,pagerank -dataset amazon -source 1984
//	cyclerank -algo ppr-target -dataset enwiki-2018 -target "Freddie Mercury"
//	cyclerank -algo ppr-target -dataset enwiki-2018 -targets "Freddie Mercury,Brian May,Queen (band)"
//	cyclerank -algo bippr-pair -dataset enwiki-2018 -source "Brian May" -target "Freddie Mercury"
//	cyclerank -algo bippr-pair -dataset enwiki-2018 -source "Brian May" -target "Freddie Mercury" -eps 1e-6 -workers 8
//	cyclerank -algo bippr-pair -dataset enwiki-2018 -source "Brian May" -targets "Freddie Mercury,Queen (band)" -walk-reuse
//	cyclerank -list-datasets
//	cyclerank -list-algorithms
//
// The graph comes either from the built-in catalog (-dataset) or from
// a file in any supported format (-file). Passing a comma-separated
// -algos list prints a side-by-side comparison (the demo's algorithm
// comparison view).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cyclerank:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cyclerank", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		algoName  = fs.String("algo", "cyclerank", "algorithm to run (see -list-algorithms)")
		algoList  = fs.String("algos", "", "comma-separated algorithms for a side-by-side comparison")
		dataset   = fs.String("dataset", "", "catalog dataset name (see -list-datasets)")
		file      = fs.String("file", "", "graph file (edgelist .csv, pajek .net, or .asd)")
		source    = fs.String("source", "", "reference node label (personalized algorithms)")
		target    = fs.String("target", "", "target node label (ppr-target, bippr-pair)")
		targets   = fs.String("targets", "", "comma-separated target labels for a batched multi-target run (side-by-side columns; indexes share one estimator)")
		k         = fs.Int("k", 0, "CycleRank max cycle length (default 3)")
		scoring   = fs.String("scoring", "", "CycleRank scoring: exp, lin, quad, const (default exp)")
		alpha     = fs.Float64("alpha", 0, "damping factor (default 0.85)")
		rmax      = fs.Float64("rmax", 0, "bidirectional PPR reverse-push residual threshold (default 1e-4)")
		walks     = fs.Int("walks", 0, "random-walk count for ppr-mc and bippr-pair (default 10000)")
		eps       = fs.Float64("eps", 0, "bippr-pair requested additive error; overrides -walks with an adaptive count")
		workers   = fs.Int("workers", 0, "bippr-pair walk worker pool size (default 1; results are bit-identical for any value)")
		walkReuse = fs.Bool("walk-reuse", false, "bippr-pair: reuse recorded walk endpoints across targets of one source (bit-identical results; pairs well with -targets)")
		seed      = fs.Int64("seed", 0, "random-walk RNG seed (default 1)")
		class     = fs.String("class", "", "request class: interactive (low-latency presets: rmax 1e-3, 2000 walks) or batch (exhaustive defaults); empty keeps explicit flags untouched")
		timeoutMS = fs.Int64("timeout-ms", 0, "cancel the run after this many milliseconds, keeping whatever phases completed in -trace (0 = no deadline)")
		top       = fs.Int("top", 10, "how many results to print")
		stats     = fs.Bool("stats", false, "print graph statistics before results")
		trace     = fs.Bool("trace", false, "print a per-phase timing breakdown (reverse push, walks, ...) after the results")
		listDS    = fs.Bool("list-datasets", false, "list catalog datasets and exit")
		listAlgos = fs.Bool("list-algorithms", false, "list algorithms and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	registry := algo.NewBuiltinRegistry()

	if *listAlgos {
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		for _, a := range registry.All() {
			var needs []string
			if a.NeedsSource() {
				needs = append(needs, "-source")
			}
			if algo.NeedsTarget(a) {
				needs = append(needs, "-target")
			}
			tag := ""
			if len(needs) > 0 {
				tag = "(needs " + strings.Join(needs, ", ") + ")"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\n", a.Name(), tag, a.Description())
		}
		return w.Flush()
	}
	if *listDS {
		catalog, err := datasets.BuiltinCatalog()
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		for _, d := range catalog.All() {
			fmt.Fprintf(w, "%s\t%s\t%s\n", d.Name, d.Kind, d.Description)
		}
		return w.Flush()
	}

	g, err := loadInput(*dataset, *file)
	if err != nil {
		return err
	}

	if *stats {
		fmt.Fprintln(out, graph.ComputeStats(g))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Request class and deadline mirror the server's serving tier: an
	// explicit -class interactive fills cheap presets into unset
	// parameter flags, and -timeout-ms bounds the whole run the same
	// way timeout_ms bounds a submitted task.
	reqClass, err := task.ParseClass(*class)
	if err != nil {
		return err
	}
	if *timeoutMS < 0 {
		return fmt.Errorf("-timeout-ms must be >= 0, got %d", *timeoutMS)
	}
	effTimeout := time.Duration(*timeoutMS) * time.Millisecond
	if effTimeout == 0 {
		effTimeout = reqClass.DefaultTimeout()
	}
	if effTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, effTimeout)
		defer tcancel()
	}

	if *trace {
		var tr *obs.Trace
		ctx, tr = obs.NewTrace(ctx, "cyclerank")
		defer func() {
			tr.End()
			fmt.Fprintf(out, "\nphases:\n%s", obs.FormatTree(tr.Tree()))
		}()
	}

	params := reqClass.ApplyParams(algo.Params{
		Source: *source, Target: *target,
		K: *k, Scoring: *scoring, Alpha: *alpha,
		RMax: *rmax, Walks: *walks, Eps: *eps,
		Workers: *workers, Seed: *seed,
		WalkReuse: *walkReuse,
	})

	if *algoList != "" {
		if *targets != "" {
			return fmt.Errorf("-algos compares algorithms for one query; use -targets with a single -algo")
		}
		names := splitList(*algoList)
		if len(names) < 2 {
			return fmt.Errorf("-algos needs at least two algorithms, got %v", names)
		}
		return runComparison(ctx, out, registry, g, names, params, *top)
	}

	if *targets != "" {
		if *target != "" {
			return fmt.Errorf("use either -target or -targets, not both")
		}
		labels := splitList(*targets)
		if len(labels) == 0 {
			return fmt.Errorf("-targets is empty")
		}
		return runTargets(ctx, out, registry, g, *algoName, labels, params, *top)
	}

	res, err := algo.Run(ctx, registry, *algoName, g, params)
	if err != nil {
		return err
	}
	if res.CyclesFound > 0 {
		fmt.Fprintf(out, "cycles found: %d\n", res.CyclesFound)
	}
	if res.Iterations > 0 {
		fmt.Fprintf(out, "iterations: %d (residual %.3g)\n", res.Iterations, res.Residual)
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "#\tnode\tscore")
	for i, e := range res.Top(*top) {
		fmt.Fprintf(w, "%d\t%s\t%.6g\n", i+1, e.Label, e.Score)
	}
	return w.Flush()
}

// loadInput resolves the graph source flags.
func loadInput(dataset, file string) (*graph.Graph, error) {
	switch {
	case dataset != "" && file != "":
		return nil, fmt.Errorf("use either -dataset or -file, not both")
	case dataset != "":
		catalog, err := datasets.BuiltinCatalog()
		if err != nil {
			return nil, err
		}
		d, err := catalog.Get(dataset)
		if err != nil {
			return nil, err
		}
		return d.Load()
	case file != "":
		return formats.ReadFile(file)
	}
	return nil, fmt.Errorf("a graph is required: pass -dataset or -file (or -list-datasets)")
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runTargets is the CLI face of the batched multi-target pipeline:
// one algorithm run per target against the same loaded graph, sharing
// the registry's bidirectional estimator (so same-parameter indexes
// are built once), printed as one column of top labels per target.
func runTargets(ctx context.Context, out io.Writer, registry *algo.Registry, g *graph.Graph, name string, labels []string, params algo.Params, top int) error {
	a, err := registry.Get(name)
	if err != nil {
		return err
	}
	if !algo.NeedsTarget(a) {
		return fmt.Errorf("-targets requires a target-aware algorithm (ppr-target, bippr-pair), not %q", name)
	}
	tops := make([][]string, len(labels))
	for i, label := range labels {
		p := params
		p.Target = label
		res, err := algo.Run(ctx, registry, name, g, p)
		if err != nil {
			return fmt.Errorf("target %q: %w", label, err)
		}
		tops[i] = res.TopLabels(top)
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "#\t%s\n", strings.Join(labels, "\t"))
	for row := 0; row < top; row++ {
		cells := make([]string, len(labels))
		for i := range labels {
			if row < len(tops[i]) {
				cells[i] = tops[i][row]
			} else {
				cells[i] = "-"
			}
		}
		fmt.Fprintf(w, "%d\t%s\n", row+1, strings.Join(cells, "\t"))
	}
	return w.Flush()
}

// runComparison prints the demo's side-by-side view: one column per
// algorithm, plus pairwise agreement metrics underneath.
func runComparison(ctx context.Context, out io.Writer, registry *algo.Registry, g *graph.Graph, names []string, params algo.Params, top int) error {
	results := make([]*ranking.Result, len(names))
	for i, name := range names {
		res, err := algo.Run(ctx, registry, name, g, params)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results[i] = res
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "#\t%s\n", strings.Join(names, "\t"))
	tops := make([][]string, len(names))
	for i, res := range results {
		tops[i] = res.TopLabels(top)
	}
	for row := 0; row < top; row++ {
		cells := make([]string, len(names))
		for i := range names {
			if row < len(tops[i]) {
				cells[i] = tops[i][row]
			} else {
				cells[i] = "-"
			}
		}
		fmt.Fprintf(w, "%d\t%s\n", row+1, strings.Join(cells, "\t"))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(out, "\npairwise agreement:")
	aw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(aw, "pair\tjaccard\trbo")
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			jac := ranking.ListJaccard(tops[i], tops[j])
			rbo, err := ranking.ListRBO(tops[i], tops[j], 0.9)
			if err != nil {
				return err
			}
			fmt.Fprintf(aw, "%s vs %s\t%.3f\t%.3f\n", names[i], names[j], jac, rbo)
		}
	}
	return aw.Flush()
}
