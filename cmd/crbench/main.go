// Command crbench regenerates every table of the paper's evaluation
// section, plus the ablation studies of internal/experiments.
//
// Usage:
//
//	crbench                         # all paper tables
//	crbench -table 1                # just Table I
//	crbench -ablation k-sweep       # one ablation
//	crbench -ablation all           # every ablation
//	crbench -format markdown        # markdown output (also: text, csv)
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

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	reg := algo.NewBuiltinRegistry()
	ablationOrder, ablations := ablationSet(ctx, reg)

	fs := flag.NewFlagSet("crbench", flag.ContinueOnError)
	var (
		table    = fs.Int("table", 0, "table to regenerate (1-3 from the paper, 4 = target-relevance extension); 0 = all")
		ablation = fs.String("ablation", "", "ablation to run: "+strings.Join(ablationOrder, ", ")+", all")
		format   = fs.String("format", "text", "output format: text, markdown, csv")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	render := func(t *experiments.Table) error {
		var s string
		switch *format {
		case "text":
			s = t.Text()
		case "markdown":
			s = t.Markdown()
		case "csv":
			s = t.CSV()
		default:
			return fmt.Errorf("unknown format %q (want text, markdown or csv)", *format)
		}
		_, err := fmt.Fprintln(out, s)
		return err
	}

	type job struct {
		name string
		gen  func() (*experiments.Table, error)
	}
	var jobs []job

	addTable := func(n int) {
		switch n {
		case 1:
			jobs = append(jobs, job{"table-1", func() (*experiments.Table, error) { return experiments.TableI(ctx, reg) }})
		case 2:
			jobs = append(jobs, job{"table-2", func() (*experiments.Table, error) { return experiments.TableII(ctx, reg) }})
		case 3:
			jobs = append(jobs, job{"table-3", func() (*experiments.Table, error) { return experiments.TableIII(ctx, reg) }})
		case 4:
			jobs = append(jobs, job{"table-4", func() (*experiments.Table, error) { return experiments.TableIV(ctx, reg) }})
		}
	}
	switch {
	case *ablation != "":
		if *ablation == "all" {
			for _, name := range ablationOrder {
				jobs = append(jobs, job{name, ablations[name]})
			}
		} else {
			gen, ok := ablations[*ablation]
			if !ok {
				return fmt.Errorf("unknown ablation %q (want one of %s, all)", *ablation, strings.Join(ablationOrder, ", "))
			}
			jobs = append(jobs, job{*ablation, gen})
		}
	case *table != 0:
		if *table < 1 || *table > 4 {
			return fmt.Errorf("tables are 1-3 (paper) and 4 (target-relevance extension), not %d", *table)
		}
		addTable(*table)
	default:
		addTable(1)
		addTable(2)
		addTable(3)
		addTable(4)
	}

	for _, j := range jobs {
		t, err := j.gen()
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if err := render(t); err != nil {
			return err
		}
	}
	return nil
}

// ablationSet returns every ablation study by name, plus the order
// `-ablation all` runs them in. order is the one list the flag help
// and the unknown-name error are built from; main_test.go holds the
// map's keys to it.
func ablationSet(ctx context.Context, reg *algo.Registry) (order []string, gens map[string]func() (*experiments.Table, error)) {
	order = []string{"k-sweep", "pruned-vs-naive", "ppr-engines", "scoring", "scale", "agreement", "alpha-sweep", "bippr", "bippr-sharding", "bippr-persist", "walk-reuse", "endpoint-persist", "control-loop"}
	gens = map[string]func() (*experiments.Table, error){
		"k-sweep": func() (*experiments.Table, error) {
			return experiments.KSweep(ctx, "enwiki-2018", "Freddie Mercury", 6)
		},
		"pruned-vs-naive": func() (*experiments.Table, error) { return experiments.PrunedVsNaive(ctx) },
		"ppr-engines": func() (*experiments.Table, error) {
			return experiments.PPREngines(ctx, "enwiki-2018", "Freddie Mercury")
		},
		"scoring":   func() (*experiments.Table, error) { return experiments.ScoringAblation(ctx, reg) },
		"scale":     func() (*experiments.Table, error) { return experiments.ScaleSweep(ctx, reg) },
		"agreement": func() (*experiments.Table, error) { return experiments.Agreement(ctx, reg) },
		"alpha-sweep": func() (*experiments.Table, error) {
			return experiments.AlphaSweep(ctx, "enwiki-2018", "Freddie Mercury",
				[]string{"United States", "HIV/AIDS"})
		},
		"bippr": func() (*experiments.Table, error) {
			return experiments.BiPPRSweep(ctx, "enwiki-2018", "Brian May", "Freddie Mercury", nil)
		},
		"bippr-sharding": func() (*experiments.Table, error) {
			return experiments.BiPPRSharding(ctx, "enwiki-2018", "Brian May", "Freddie Mercury", nil)
		},
		"bippr-persist": func() (*experiments.Table, error) {
			return experiments.BiPPRPersist(ctx, "enwiki-2018", "Freddie Mercury", 0)
		},
		"walk-reuse": func() (*experiments.Table, error) {
			return experiments.WalkReuse(ctx, "enwiki-2018", "Brian May",
				[]string{"Freddie Mercury", "Queen (band)", "Roger Taylor"}, 0)
		},
		"endpoint-persist": func() (*experiments.Table, error) {
			return experiments.EndpointPersist(ctx, "enwiki-2018", "Brian May", "Freddie Mercury", 0)
		},
		"control-loop": func() (*experiments.Table, error) {
			return experiments.ControlLoop(ctx, 0, 0)
		},
	}
	return order, gens
}
