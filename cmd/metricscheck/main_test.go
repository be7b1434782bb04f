package main

import (
	"slices"
	"testing"
)

// TestDrift checks both directions of the docs-vs-scrape comparison:
// an exported family the docs never mention, and a family a table row
// names (alone or sharing the row) that the scrape does not export.
// Names outside table rows and prefix matches do not count.
func TestDrift(t *testing.T) {
	doc := []byte("Serving tier:\n\n" +
		"| Family | Type | Meaning |\n" +
		"|--------|------|---------|\n" +
		"| `cyclerank_a_total` | counter | kept |\n" +
		"| `cyclerank_b` / `cyclerank_gone_seconds` | gauge | one row, two families |\n" +
		"  | `cyclerank_gone_total` | counter | indented row |\n" +
		"Prose may mention `cyclerank_prose_only` without a row.\n")
	exported := []string{"cyclerank_a_total", "cyclerank_b", "cyclerank_a", "cyclerank_new_total"}

	undocumented, unexported := drift(doc, exported)
	if want := []string{"cyclerank_a", "cyclerank_new_total"}; !slices.Equal(undocumented, want) {
		t.Errorf("undocumented = %v, want %v", undocumented, want)
	}
	if want := []string{"cyclerank_gone_seconds", "cyclerank_gone_total"}; !slices.Equal(unexported, want) {
		t.Errorf("unexported = %v, want %v", unexported, want)
	}

	// Docs and scrape in agreement: nothing to report either way.
	undocumented, unexported = drift(doc, []string{"cyclerank_a_total", "cyclerank_b",
		"cyclerank_gone_seconds", "cyclerank_gone_total"})
	if len(undocumented) != 0 || len(unexported) != 0 {
		t.Errorf("agreeing docs reported drift: %v / %v", undocumented, unexported)
	}
}
