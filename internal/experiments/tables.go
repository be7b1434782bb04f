package experiments

import (
	"context"
	"fmt"

	"github.com/cyclerank/cyclerank-go/internal/algo"
)

// TopK is the list depth used by the paper's tables.
const TopK = 5

// TableI reproduces Table I: top-5 articles by PageRank (α=0.85),
// CycleRank (K=3, σ=exp) and Personalized PageRank (α=0.3) on the
// English Wikipedia 2018-03-01 snapshot, with reference articles
// "Freddie Mercury" and "Pasta".
func TableI(ctx context.Context, reg *algo.Registry) (*Table, error) {
	g, err := loadDataset("enwiki-2018")
	if err != nil {
		return nil, err
	}

	pr, _, err := topN(ctx, reg, algo.NamePageRank, g, algo.Params{Alpha: 0.85}, TopK)
	if err != nil {
		return nil, err
	}

	type cols struct{ cr, ppr []string }
	perRef := map[string]cols{}
	for _, ref := range []string{"Freddie Mercury", "Pasta"} {
		cr, _, err := topN(ctx, reg, algo.NameCycleRank, g,
			algo.Params{Source: ref, K: 3, Scoring: "exp"}, TopK)
		if err != nil {
			return nil, err
		}
		ppr, _, err := topN(ctx, reg, algo.NamePPR, g,
			algo.Params{Source: ref, Alpha: 0.3}, TopK)
		if err != nil {
			return nil, err
		}
		perRef[ref] = cols{cr: pad(cr, TopK), ppr: pad(ppr, TopK)}
	}

	t := &Table{
		ID: "table-1",
		Title: "Top-5 by PR (α=0.85), CR (K=3, σ=e^-n) and PPR (α=0.3) on enwiki 2018-03-01; " +
			"references: Freddie Mercury, Pasta",
		Headers: []string{"#", "PageRank",
			"Cyclerank (Freddie Mercury)", "Pers.PageRank (Freddie Mercury)",
			"Cyclerank (Pasta)", "Pers.PageRank (Pasta)"},
	}
	fm, pasta := perRef["Freddie Mercury"], perRef["Pasta"]
	for i := 0; i < TopK; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1), pr[i],
			fm.cr[i], fm.ppr[i],
			pasta.cr[i], pasta.ppr[i],
		})
	}
	return t, nil
}

// TableII reproduces Table II: top-5 items by PageRank (α=0.85),
// CycleRank (K=5, σ=exp) and Personalized PageRank (α=0.85) on the
// Amazon co-purchase graph, with reference items "1984" and "The
// Fellowship of the Ring".
func TableII(ctx context.Context, reg *algo.Registry) (*Table, error) {
	g, err := loadDataset("amazon")
	if err != nil {
		return nil, err
	}

	pr, _, err := topN(ctx, reg, algo.NamePageRank, g, algo.Params{Alpha: 0.85}, TopK)
	if err != nil {
		return nil, err
	}

	// Unlike Table I, the paper's Table II excludes the reference item
	// from its personalized columns; mirror that.
	type cols struct{ cr, ppr []string }
	perRef := map[string]cols{}
	for _, ref := range []string{"1984", "The Fellowship of the Ring"} {
		cr, _, err := topN(ctx, reg, algo.NameCycleRank, g,
			algo.Params{Source: ref, K: 5, Scoring: "exp"}, TopK+1)
		if err != nil {
			return nil, err
		}
		ppr, _, err := topN(ctx, reg, algo.NamePPR, g,
			algo.Params{Source: ref, Alpha: 0.85}, TopK+1)
		if err != nil {
			return nil, err
		}
		perRef[ref] = cols{
			cr:  pad(dropLabel(cr, ref, TopK), TopK),
			ppr: pad(dropLabel(ppr, ref, TopK), TopK),
		}
	}

	t := &Table{
		ID: "table-2",
		Title: "Top-5 by PR (α=0.85), CR (K=5, σ=e^-n) and PPR (α=0.85) on the Amazon " +
			"co-purchase graph; references: 1984, The Fellowship of the Ring",
		Headers: []string{"#", "PageRank",
			"Cyclerank (1984)", "Pers.PageRank (1984)",
			"Cyclerank (Fellowship)", "Pers.PageRank (Fellowship)"},
	}
	d1984, fotr := perRef["1984"], perRef["The Fellowship of the Ring"]
	for i := 0; i < TopK; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1), pr[i],
			d1984.cr[i], d1984.ppr[i],
			fotr.cr[i], fotr.ppr[i],
		})
	}
	return t, nil
}

// dropLabel filters one label out of a ranking and truncates to n.
func dropLabel(labels []string, drop string, n int) []string {
	out := make([]string, 0, n)
	for _, l := range labels {
		if l != drop {
			out = append(out, l)
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// tableIIIEditions lists the language editions and localized reference
// titles of Table III, in the paper's column order.
var tableIIIEditions = []struct {
	Lang string
	Ref  string
}{
	{"de", "Fake News"},
	{"en", "Fake news"},
	{"fr", "Fake news"},
	{"it", "Fake news"},
	{"nl", "Nepnieuws"},
	{"pl", "Fake news"},
}

// TableIII reproduces Table III: top-5 articles by CycleRank (K=3,
// σ=exp) from the "Fake news" article across six Wikipedia language
// editions (de, en, fr, it, nl, pl), 2018 snapshots.
func TableIII(ctx context.Context, reg *algo.Registry) (*Table, error) {
	t := &Table{
		ID:      "table-3",
		Title:   "Top-5 by Cyclerank (K=3, σ=e^-n) from the Fake-news article across language editions (2018)",
		Headers: []string{"#"},
	}
	columns := make([][]string, 0, len(tableIIIEditions))
	for _, ed := range tableIIIEditions {
		g, err := loadDataset(fmt.Sprintf("%swiki-2018", ed.Lang))
		if err != nil {
			return nil, err
		}
		top, _, err := topN(ctx, reg, algo.NameCycleRank, g,
			algo.Params{Source: ed.Ref, K: 3, Scoring: "exp"}, TopK+1)
		if err != nil {
			return nil, err
		}
		// The paper's Table III excludes the reference article itself.
		columns = append(columns, pad(dropLabel(top, ed.Ref, TopK), TopK))
		t.Headers = append(t.Headers, fmt.Sprintf("%s (%s)", ed.Ref, ed.Lang))
	}
	for i := 0; i < TopK; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, col := range columns {
			row = append(row, col[i])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
