// Command metricscheck is the `make metrics-check` gate: it stands up
// an in-process server, scrapes GET /metrics, and fails when the
// exposition is malformed Prometheus text, when any exported metric
// family is not documented in the API reference, or when a metric
// table row in the reference names a family the scrape does not
// export. Exporting a metric and documenting it become one step — a
// new family that never made it into API.md, or a deleted one whose
// row stayed behind, breaks the build, not a dashboard.
//
// Usage:
//
//	metricscheck -docs API.md
//
// Exit status is non-zero with one diagnostic per offence.
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/server"
)

func main() {
	docs := flag.String("docs", "API.md", "markdown file that must mention every exported metric family")
	flag.Parse()
	if err := check(*docs); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	fmt.Println("metricscheck: exposition well-formed, docs and scrape agree on every family")
}

func check(docsPath string) error {
	doc, err := os.ReadFile(docsPath)
	if err != nil {
		return err
	}

	// A real server instance, not a hand-kept list: every family any
	// component registers at construction (scheduler, index store,
	// endpoint cache, datastore, prewarm, GC, bippr's package counters)
	// is present in the scrape without running a single query.
	dir, err := os.MkdirTemp("", "metricscheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := datastore.Open(dir)
	if err != nil {
		return err
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Registry: algo.NewBuiltinRegistry(),
		Catalog:  catalog,
		Store:    store,
		Workers:  1,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return fmt.Errorf("GET /metrics returned %d", rec.Code)
	}
	families, err := obs.CheckExposition(rec.Body.Bytes())
	if err != nil {
		return fmt.Errorf("malformed exposition: %w", err)
	}
	if len(families) == 0 {
		return fmt.Errorf("scrape exported no metric families")
	}
	undocumented, unexported := drift(doc, families)
	for _, f := range undocumented {
		fmt.Fprintf(os.Stderr, "%s: metric family %s is exported but not documented\n", docsPath, f)
	}
	for _, f := range unexported {
		fmt.Fprintf(os.Stderr, "%s: metric family %s is documented but not exported\n", docsPath, f)
	}
	if len(undocumented)+len(unexported) > 0 {
		return fmt.Errorf("%d undocumented and %d unexported metric families", len(undocumented), len(unexported))
	}
	return nil
}

// tableFamily matches a backquoted cyclerank_* metric name.
var tableFamily = regexp.MustCompile("`(cyclerank_[a-zA-Z0-9_:]+)`")

// drift compares the docs with the scraped families in both
// directions: families the docs never mention, and cyclerank_*
// families named in a markdown table row that the scrape does not
// export (a deleted metric whose row stayed behind). Both lists are
// sorted.
func drift(doc []byte, families []string) (undocumented, unexported []string) {
	for _, f := range families {
		if !contains(doc, f) {
			undocumented = append(undocumented, f)
		}
	}
	exported := make(map[string]bool, len(families))
	for _, f := range families {
		exported[f] = true
	}
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range tableFamily.FindAllStringSubmatch(line, -1) {
			if f := m[1]; !exported[f] && !seen[f] {
				seen[f] = true
				unexported = append(unexported, f)
			}
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unexported)
	return undocumented, unexported
}

// contains reports whether the docs mention name as a whole word —
// a substring match would let cyclerank_foo document
// cyclerank_foo_total without the suffix ever appearing.
func contains(doc []byte, name string) bool {
	for i := 0; i+len(name) <= len(doc); i++ {
		if string(doc[i:i+len(name)]) != name {
			continue
		}
		if i+len(name) < len(doc) && isNameByte(doc[i+len(name)]) {
			continue
		}
		return true
	}
	return false
}

func isNameByte(b byte) bool {
	return b == '_' || b == ':' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}
