package main

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestSingleTable(t *testing.T) {
	out, err := runBench(t, "-table", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "table-1") || !strings.Contains(out, "Freddie Mercury") {
		t.Errorf("table 1 output incomplete")
	}
	if strings.Contains(out, "table-2") {
		t.Error("unrequested table present")
	}
}

func TestAllTablesMarkdown(t *testing.T) {
	out, err := runBench(t, "-format", "markdown")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"### table-1", "### table-2", "### table-3", "| 1 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestCSVFormat(t *testing.T) {
	out, err := runBench(t, "-table", "3", "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Dezinformacja") {
		t.Error("missing expected cell")
	}
}

func TestSingleAblation(t *testing.T) {
	out, err := runBench(t, "-ablation", "k-sweep")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ablation-k-sweep") {
		t.Error("missing ablation id")
	}
}

func TestAgreementAblation(t *testing.T) {
	out, err := runBench(t, "-ablation", "agreement")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cyclerank vs ppr") {
		t.Error("missing pair")
	}
}

// TestWalkReuseAblation exercises the endpoint-reuse table on a small
// catalog graph; the generator itself errors if a reused estimate ever
// differs from its fresh-walk twin.
func TestWalkReuseAblation(t *testing.T) {
	out, err := runBench(t, "-ablation", "walk-reuse")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ablation-walk-reuse", "reused endpoints", "fresh walks"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestEndpointPersistAblation exercises the persisted-recording
// table; the generator errors if a deserialized recording's estimate
// ever differs from the cold walk pass, or if the restarted cache
// pays any walk simulation.
func TestEndpointPersistAblation(t *testing.T) {
	out, err := runBench(t, "-ablation", "endpoint-persist")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ablation-endpoint-persist", "persisted recordings", "deserialized", "re-simulated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestControlLoopAblation exercises the static-vs-adaptive serving
// tier comparison; the generator errors if any mode sheds for the
// wrong reason, if the slo gate admits work under a breached
// objective, or if the calibrated Retry-After hint stays at the floor.
func TestControlLoopAblation(t *testing.T) {
	out, err := runBench(t, "-ablation", "control-loop")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ablation-control-loop", "static", "slo-gate", "calibrated-ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "9"},
		{"-ablation", "nope"},
		{"-format", "yaml", "-table", "1"},
	} {
		if _, err := runBench(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestAblationNamesInSync is the doc-drift guard: the name → study map
// must hold exactly the names of ablationSet's order (which the flag
// help and the unknown-name error print), and every `-ablation <name>`
// the docs mention must be one crbench accepts.
func TestAblationNamesInSync(t *testing.T) {
	order, gens := ablationSet(context.Background(), nil)
	want := slices.Sorted(slices.Values(order))
	if got := slices.Sorted(maps.Keys(gens)); !slices.Equal(got, want) {
		t.Errorf("the map holds %v, order lists %v", got, want)
	}

	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../.claude/skills/verify/SKILL.md")
	// Docs wrap lines, so the flag and its value may be split by a
	// newline (and a fenced block's indentation).
	mention := regexp.MustCompile(`-ablation\s+([a-z0-9][a-z0-9-]*)`)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllSubmatch(text, -1) {
			if name := string(m[1]); name != "all" && gens[name] == nil {
				t.Errorf("%s mentions -ablation %s, which crbench does not accept", doc, name)
			}
		}
	}
}
