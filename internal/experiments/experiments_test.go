package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/algo"
)

func reg() *algo.Registry { return algo.NewBuiltinRegistry() }

func TestTableI(t *testing.T) {
	tab, err := TableI(context.Background(), reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Headers) != 6 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Headers))
	}
	// Paper shape assertions:
	// PR column = global hubs, led by United States.
	if tab.Rows[0][1] != "United States" {
		t.Errorf("PR top1 = %q, want United States", tab.Rows[0][1])
	}
	// CR(Freddie Mercury) column: reference first, then Queen (band).
	if tab.Rows[0][2] != "Freddie Mercury" || tab.Rows[1][2] != "Queen (band)" {
		t.Errorf("CR(FM) column = %v, %v", tab.Rows[0][2], tab.Rows[1][2])
	}
	// PPR(FM) includes the reference at top.
	if tab.Rows[0][3] != "Freddie Mercury" {
		t.Errorf("PPR(FM) top1 = %q", tab.Rows[0][3])
	}
	// CR(Pasta) column: Pasta first, Italian cuisine second.
	if tab.Rows[0][4] != "Pasta" || tab.Rows[1][4] != "Italian cuisine" {
		t.Errorf("CR(Pasta) column = %v, %v", tab.Rows[0][4], tab.Rows[1][4])
	}
	// Hub leak appears somewhere in the PPR(FM) column but never in CR.
	leak := false
	for _, row := range tab.Rows {
		if row[3] == "HIV/AIDS" || row[3] == "United States" {
			leak = true
		}
		if row[2] == "HIV/AIDS" || row[2] == "United States" {
			t.Errorf("CycleRank column contains hub %q", row[2])
		}
	}
	if !leak {
		t.Error("PPR column shows no hub leak; Table I contrast lost")
	}
}

func TestTableII(t *testing.T) {
	tab, err := TableII(context.Background(), reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "Good to Great" {
		t.Errorf("PR top1 = %q, want Good to Great", tab.Rows[0][1])
	}
	// Table II excludes the reference item; row 1 of CR(1984) is its
	// closest mutual co-purchase.
	if tab.Rows[0][2] != "Animal Farm" {
		t.Errorf("CR(1984) top1 = %v, want Animal Farm", tab.Rows[0][2])
	}
	for _, row := range tab.Rows {
		if row[2] == "1984" || row[4] == "The Fellowship of the Ring" {
			t.Error("Table II column contains its own reference")
		}
	}
	// Harry Potter appears in PPR(Fellowship) but never in CR columns.
	hp := false
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[5], "Harry Potter") {
			hp = true
		}
		if strings.HasPrefix(row[2], "Harry Potter") || strings.HasPrefix(row[4], "Harry Potter") {
			t.Errorf("CycleRank column contains bestseller %q", row[2])
		}
	}
	if !hp {
		t.Error("PPR(Fellowship) shows no Harry Potter; Table II contrast lost")
	}
}

func TestTableIII(t *testing.T) {
	tab, err := TableIII(context.Background(), reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Headers) != 7 { // # + 6 language editions
		t.Fatalf("headers = %v", tab.Headers)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Paper row 1 per column: de=Barack Obama, en=CNN, fr=Ère
	// post-vérité, it=Disinformazione, nl=Facebook, pl=Dezinformacja.
	want := []string{"Barack Obama", "CNN", "Ère post-vérité", "Disinformazione", "Facebook", "Dezinformacja"}
	for c, w := range want {
		if tab.Rows[0][c+1] != w {
			t.Errorf("column %d top1 = %q, want %q", c+1, tab.Rows[0][c+1], w)
		}
	}
	// The reference article itself never appears in its own column.
	for _, row := range tab.Rows {
		for c, ed := range tableIIIEditions {
			if row[c+1] == ed.Ref {
				t.Errorf("%s column contains its reference %q", ed.Lang, ed.Ref)
			}
		}
	}
}

func TestRenderers(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", `q"q`}},
	}
	text := tab.Text()
	if !strings.Contains(text, "demo") || !strings.Contains(text, "x,y") {
		t.Errorf("Text = %q", text)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | b |") {
		t.Errorf("Markdown = %q", md)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""q"`) {
		t.Errorf("CSV = %q", csv)
	}
}

func TestKSweep(t *testing.T) {
	tab, err := KSweep(context.Background(), "enwiki-2013", "Freddie Mercury", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // K = 2, 3, 4
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Cycles monotonically non-decreasing in K.
	if tab.Rows[0][1] > tab.Rows[1][1] && len(tab.Rows[0][1]) >= len(tab.Rows[1][1]) {
		t.Errorf("cycles decreased: %v -> %v", tab.Rows[0][1], tab.Rows[1][1])
	}
	if _, err := KSweep(context.Background(), "enwiki-2013", "nobody", 3); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestBiPPRPersist(t *testing.T) {
	tab, err := BiPPRPersist(context.Background(), "enwiki-2013", "Freddie Mercury", 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // computed, disk, memory
		t.Fatalf("rows = %d, want 3 tiers", len(tab.Rows))
	}
	for i, tier := range []string{"computed", "disk", "memory"} {
		if tab.Rows[i][0] != tier {
			t.Errorf("row %d tier %q, want %q", i, tab.Rows[i][0], tier)
		}
	}
	if _, err := BiPPRPersist(context.Background(), "enwiki-2013", "nobody", 0); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestPrunedVsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("naive enumeration is slow")
	}
	tab, err := PrunedVsNaive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestPPREngines(t *testing.T) {
	tab, err := PPREngines(context.Background(), "enwiki-2013", "Freddie Mercury")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Exact row reports zero error against itself.
	if tab.Rows[0][1] != "0.00e+00" {
		t.Errorf("exact L1 = %q", tab.Rows[0][1])
	}
}

func TestScoringAblation(t *testing.T) {
	tab, err := ScoringAblation(context.Background(), reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Headers) != 5 { // # + 4 scorings
		t.Fatalf("headers = %v", tab.Headers)
	}
	// Reference tops every column regardless of σ.
	for c := 1; c < len(tab.Headers); c++ {
		if tab.Rows[0][c] != "Freddie Mercury" {
			t.Errorf("σ column %d top1 = %q", c, tab.Rows[0][c])
		}
	}
}

func TestAgreement(t *testing.T) {
	tab, err := Agreement(context.Background(), reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // C(4,2)
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAlphaSweep(t *testing.T) {
	tab, err := AlphaSweep(context.Background(), "enwiki-2018", "Freddie Mercury",
		[]string{"United States", "HIV/AIDS"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Longer walks leak more probability onto the tracked hubs, at
	// least up to the standard α=0.85 (beyond that the personalization
	// washes out toward global PageRank and mass spreads over *all*
	// hubs, so strict monotonicity is not expected at the tail).
	mass := func(row int) float64 {
		var m float64
		if _, err := fmt.Sscanf(tab.Rows[row][1], "%f", &m); err != nil {
			t.Fatalf("bad mass cell %q", tab.Rows[row][1])
		}
		return m
	}
	if mass(4) <= mass(0) { // α=0.85 vs α=0.1
		t.Errorf("hub mass did not grow with alpha: %v (0.1) vs %v (0.85)", mass(0), mass(4))
	}
	if _, err := AlphaSweep(context.Background(), "enwiki-2018", "nobody", nil); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := AlphaSweep(context.Background(), "enwiki-2018", "Freddie Mercury", []string{"ghost-hub"}); err == nil {
		t.Error("unknown hub accepted")
	}
}

func TestScaleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 7 algorithms on 4 snapshots")
	}
	tab, err := ScaleSweep(context.Background(), reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Headers) != 3+7 {
		t.Fatalf("headers = %v", tab.Headers)
	}
}

func TestTableIV(t *testing.T) {
	tab, err := TableIV(context.Background(), reg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Headers) != 5 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Headers))
	}
	// The to-Freddie column is his tightly reciprocal community; the
	// global hubs he leaks to must NOT dominate the target view (they
	// point at him rarely relative to their out-neighborhoods).
	for i := 0; i < 5; i++ {
		if cell := tab.Rows[i][1]; cell == "United States" || cell == "HIV/AIDS" {
			t.Errorf("global hub %q ranked top-%d by relevance TO Freddie Mercury", cell, i+1)
		}
	}
	// The from-Freddie column leaks onto a global hub (the PPR bias
	// the paper documents) — the asymmetry Table IV demonstrates.
	leak := false
	for i := 0; i < 5; i++ {
		if tab.Rows[i][2] == "United States" || tab.Rows[i][2] == "HIV/AIDS" {
			leak = true
		}
	}
	if !leak {
		t.Error("from-reference column shows no hub leak; asymmetry demo lost")
	}
}

func TestBiPPRSweep(t *testing.T) {
	tab, err := BiPPRSweep(context.Background(), "enwiki-2018", "Brian May", "Freddie Mercury",
		[]float64{1e-3, 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Smaller rmax must push more and estimate at least as accurately.
	var pushesLoose, pushesTight int
	var errLoose, errTight float64
	if _, err := fmt.Sscanf(tab.Rows[0][1], "%d", &pushesLoose); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(tab.Rows[1][1], "%d", &pushesTight); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(tab.Rows[0][4], "%e", &errLoose); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(tab.Rows[1][4], "%e", &errTight); err != nil {
		t.Fatal(err)
	}
	if pushesTight <= pushesLoose {
		t.Errorf("pushes did not grow as rmax shrank: %d vs %d", pushesLoose, pushesTight)
	}
	if errLoose > 1e-3 || errTight > 1e-4 {
		t.Errorf("errors exceed additive bounds: %g (1e-3), %g (1e-5)", errLoose, errTight)
	}
}
