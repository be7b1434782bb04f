package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/api-*.golden")

// goldenUpload is a small labeled edge list: two reciprocated pairs and
// a triangle, so CycleRank from alice finds cycles of every length to 3.
const goldenUpload = "alice,bob\nbob,alice\nbob,carol\ncarol,alice\ncarol,dave\ndave,carol\nalice,carol\ndave,erin\n"

// sevenAlgorithms is the paper's comparison as one tasks array.
func sevenAlgorithms(dataset, source string) string {
	var specs []string
	for _, alg := range []string{"cyclerank", "pagerank", "ppr", "cheirank", "pcheirank", "2drank", "p2drank"} {
		k := ""
		if alg == "cyclerank" {
			k = `, "k": 3`
		}
		specs = append(specs, fmt.Sprintf(`{"dataset": %q, "algorithm": %q, "params": {"source": %q%s}}`, dataset, alg, source, k))
	}
	return `{"tasks": [` + strings.Join(specs, ", ") + `]}`
}

// TestAPIGolden runs a fixed set of requests through a server built the
// way crserver builds one (pre-warm off) and compares three records
// with testdata: every served document with its volatile fields
// dropped, the /metrics family set and the /api/status key set. One
// interactive and one batch executor, and a batch pool of width 1,
// make the task that pays for a shared score vector or index the same
// one on every run, so even the cached flags and effort counters are
// fixed. A change to any served number, any document field, metric
// family or status key fails here; `go test ./internal/server -run
// APIGolden -update` rewrites the goldens, and their diff is the
// change's record.
func TestAPIGolden(t *testing.T) {
	store, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("enwiki-2018", "ba-medium", "ba-large")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog, Store: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer closeBoot(t, s, ts)

	var docs bytes.Buffer
	record := func(step string, raw []byte) {
		t.Helper()
		fmt.Fprintf(&docs, "### %s\n%s\n", step, normalizeDoc(t, raw))
	}
	// query submits one request, waits for its query set and records the
	// compare view.
	query := func(step, body string) {
		t.Helper()
		sub, status := postTasks(t, ts.URL, body)
		if status != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", step, status)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := s.Scheduler().WaitQuerySet(ctx, sub.ComparisonID); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		record(step, get(t, ts.URL+"/api/compare/"+sub.ComparisonID))
	}

	query("bippr-pair", `{"tasks": [{"dataset": "enwiki-2018", "algorithm": "bippr-pair",
		"params": {"source": "Brian May", "target": "Freddie Mercury", "rmax": 1e-4, "walks": 500}}]}`)
	query("ppr-target", `{"tasks": [{"dataset": "ba-large", "algorithm": "ppr-target",
		"params": {"target": "17", "rmax": 1e-6}}]}`)
	query("seven on ba-medium", sevenAlgorithms("ba-medium", "42"))
	query("seven on enwiki-2018", sevenAlgorithms("enwiki-2018", "Freddie Mercury"))

	resp, err := http.Post(ts.URL+"/api/datasets/golden-up", "text/plain", strings.NewReader(goldenUpload))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	record("upload", body)
	query("compare on the upload", `{"tasks": [
		{"dataset": "golden-up", "algorithm": "cyclerank", "params": {"source": "alice"}},
		{"dataset": "golden-up", "algorithm": "ppr", "params": {"source": "alice"}},
		{"dataset": "golden-up", "algorithm": "p2drank", "params": {"source": "alice"}}]}`)
	query("batch with a failing subquery", `{"dataset": "enwiki-2018", "algorithm": "bippr-pair", "parallelism": 1,
		"queries": [
			{"params": {"source": "Brian May", "target": "Freddie Mercury", "rmax": 1e-4, "walks": 500}},
			{"params": {"source": "Brian May", "target": "No Such Article", "rmax": 1e-4, "walks": 500}}]}`)

	families, err := obs.CheckExposition(get(t, ts.URL+"/metrics"))
	if err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	checkGolden(t, "api-documents.golden", docs.Bytes())
	checkGolden(t, "api-metrics.golden", sortedLines(families))
	checkGolden(t, "api-status-keys.golden", sortedLines(statusKeys(t, get(t, ts.URL+"/api/status"))))
}

// get fetches a URL that must answer 200 and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// normalizeDoc re-indents a JSON document without the fields that
// differ between two runs of the same requests: ids, timestamps and
// durations (every *_ms and *_at key, phase timings included), and a
// walk phase's "workers" metric, which echoes GOMAXPROCS. Numbers keep
// their served text, so a one-ulp change to a score shows.
func normalizeDoc(t *testing.T, raw []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	out, err := json.MarshalIndent(dropVolatile(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func dropVolatile(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			switch {
			case k == "id" || k == "comparison_id" || k == "query_set" ||
				k == "submitted" || k == "started" || k == "finished" ||
				strings.HasSuffix(k, "_at") || strings.HasSuffix(k, "_ms"):
				delete(x, k)
			case k == "metrics":
				if m, ok := e.(map[string]any); ok {
					delete(m, "workers")
				}
			default:
				x[k] = dropVolatile(e)
			}
		}
	case []any:
		for i := range x {
			x[i] = dropVolatile(x[i])
		}
	}
	return v
}

// statusKeys lists /api/status's key set: every row, every key of an
// object row as row.key, and the keys of the first graphs entry as
// graphs[].key.
func statusKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var rows map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for row, val := range rows {
		keys = append(keys, row)
		var obj map[string]json.RawMessage
		var arr []map[string]json.RawMessage
		prefix := row + "."
		if json.Unmarshal(val, &arr) == nil && len(arr) > 0 {
			obj, prefix = arr[0], row+"[]."
		} else if json.Unmarshal(val, &obj) != nil {
			continue
		}
		for k := range obj {
			keys = append(keys, prefix+k)
		}
	}
	return keys
}

func sortedLines(lines []string) []byte {
	lines = append([]string(nil), lines...)
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs from the served output at line %d:\n got: %s\nwant: %s\n(rerun with -update and review the diff if the change is deliberate)", path, i+1, g, w)
			}
		}
	}
}
