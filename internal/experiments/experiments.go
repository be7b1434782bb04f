// Package experiments regenerates every table in the paper's
// evaluation section plus the ablation and scalability studies
// `crbench -ablation` lists. Each experiment returns a structured
// report the crbench binary renders as text, markdown or CSV.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
)

// Table is a generic column-oriented result table (the paper's tables
// are top-5 lists per algorithm configuration).
type Table struct {
	ID      string     `json:"id"`    // e.g. "table-1"
	Title   string     `json:"title"` // caption
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// Text renders the table as aligned plain text.
func (t *Table) Text() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Headers, " | "))
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing
// commas are double-quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		b.WriteString(strings.Join(out, ","))
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// topN runs an algorithm and returns the top-n labels, excluding the
// reference node itself when exclude is non-empty (the paper's tables
// include the reference as row 1 for personalized algorithms; callers
// choose).
func topN(ctx context.Context, reg *algo.Registry, name string, g *graph.Graph, p algo.Params, n int) ([]string, *ranking.Result, error) {
	res, err := algo.Run(ctx, reg, name, g, p)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return res.TopLabels(n), res, nil
}

// pad extends a label list to length n with "-" (the paper renders
// missing rows as dashes, e.g. Table III's nl and pl columns).
func pad(labels []string, n int) []string {
	for len(labels) < n {
		labels = append(labels, "-")
	}
	return labels
}

// loadDataset fetches a catalog dataset once.
func loadDataset(name string) (*graph.Graph, error) {
	cat, err := datasets.BuiltinCatalogSubset(name)
	if err != nil {
		return nil, err
	}
	d, err := cat.Get(name)
	if err != nil {
		return nil, err
	}
	return d.Load()
}

// timed runs fn and returns its duration.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
