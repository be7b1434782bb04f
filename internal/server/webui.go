package server

import (
	"html/template"
	"net/http"
)

// The Web UI is a deliberately small server-rendered frontend: a task
// builder listing datasets and algorithms, a comparison page that
// auto-refreshes while tasks run, and an instructions page documenting
// upload formats — the same pages the demo exposes.

var uiTemplates = template.Must(template.New("ui").Funcs(template.FuncMap{
	"inc": func(i int) int { return i + 1 },
}).Parse(`
{{define "layout_head"}}<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}} — CycleRank demo</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1c1e21; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 1rem 0; width: 100%; }
th, td { border: 1px solid #cbd2d9; padding: 0.35rem 0.6rem; text-align: left; font-size: 0.9rem; }
th { background: #f1f4f8; }
code { background: #f1f4f8; padding: 0.1rem 0.3rem; border-radius: 3px; }
.state-done { color: #0a7d36; } .state-failed { color: #b3261e; }
.state-running, .state-pending { color: #8a6d00; }
nav a { margin-right: 1rem; }
</style>
</head>
<body>
<nav><a href="/">Task builder</a><a href="/instructions">Instructions</a></nav>
<h1>{{.Title}}</h1>{{end}}

{{define "home"}}{{template "layout_head" .}}
<p>Build a query set by POSTing to <code>/api/tasks</code>; this page lists
the available resources. Results are retrieved from the comparison
permalink returned at submission.</p>
<h2>Datasets ({{len .Datasets}})</h2>
<table>
<tr><th>Name</th><th>Kind</th><th>Description</th><th>Suggested reference nodes</th></tr>
{{range .Datasets}}<tr><td><a href="/api/datasets/{{.Name}}">{{.Name}}</a></td><td>{{.Kind}}</td><td>{{.Description}}</td><td>{{range .SuggestedSources}}<code>{{.}}</code> {{end}}</td></tr>
{{end}}</table>
<h2>Algorithms ({{len .Algorithms}})</h2>
<table>
<tr><th>Name</th><th>Needs reference node</th><th>Needs target node</th><th>Description</th></tr>
{{range .Algorithms}}<tr><td><code>{{.Name}}</code></td><td>{{if .NeedsSource}}yes{{else}}no{{end}}</td><td>{{if .NeedsTarget}}yes{{else}}no{{end}}</td><td>{{.Description}}</td></tr>
{{end}}</table>
</body></html>{{end}}

{{define "compare"}}{{template "layout_head" .}}
{{if not .Done}}<meta http-equiv="refresh" content="1">
<p>Computation in progress; this page refreshes automatically.</p>{{end}}
<p>Comparison id: <code>{{.ComparisonID}}</code></p>
{{range .Tasks}}
<h2>{{.Task.Algorithm}} on {{.Task.Dataset}} <span class="state-{{.Task.State}}">[{{.Task.State}}]</span></h2>
<p>Parameters: <code>{{.Task.Params}}</code>{{with .Task.Error}} — error: {{.}}{{end}}</p>
{{if .Result}}<table>
<tr><th>#</th><th>Node</th><th>Score</th></tr>
{{range $i, $e := .Result.Top}}{{if lt $i 10}}<tr><td>{{inc $i}}</td><td>{{$e.Label}}</td><td>{{printf "%.6g" $e.Score}}</td></tr>{{end}}{{end}}
</table>{{end}}
{{end}}
</body></html>{{end}}

{{define "instructions"}}{{template "layout_head" .}}
<h2>Supported dataset formats</h2>
<p>Upload with <code>POST /api/datasets/{name}</code> (raw file body,
optional <code>?format=</code> override). Supported formats:</p>
<table>
<tr><th>Format</th><th>Extension</th><th>Description</th></tr>
<tr><td><code>edgelist</code></td><td>.csv</td><td>One edge per line: <code>source,target</code> (comma, tab or space separated; Gephi CSV convention).</td></tr>
<tr><td><code>pajek</code></td><td>.net</td><td>Pajek NET: <code>*Vertices n</code>, vertex declarations, then an <code>*Arcs</code> section of 1-based id pairs.</td></tr>
<tr><td><code>asd</code></td><td>.asd</td><td>Header <code>N M</code> followed by exactly M lines of 0-based <code>src dst</code> pairs.</td></tr>
</table>
<h2>Submitting a query set</h2>
<pre><code>POST /api/tasks
{"tasks": [
  {"dataset": "enwiki-2018", "algorithm": "cyclerank",
   "params": {"source": "Fake news", "k": 3, "scoring": "exp"}},
  {"dataset": "enwiki-2018", "algorithm": "pagerank",
   "params": {"alpha": 0.3}},
  {"dataset": "enwiki-2018", "algorithm": "ppr",
   "params": {"source": "Fake news", "alpha": 0.3}}
]}</code></pre>
<h2>Target-node queries</h2>
<p>The bidirectional engines answer the reverse question — who is
relevant <em>to</em> a node. <code>ppr-target</code> ranks every node by
its Personalized-PageRank relevance to <code>target</code>;
<code>bippr-pair</code> estimates a single source→target score without
touching most of the graph:</p>
<pre><code>POST /api/tasks
{"tasks": [
  {"dataset": "enwiki-2018", "algorithm": "ppr-target",
   "params": {"target": "Freddie Mercury", "alpha": 0.85, "rmax": 1e-4}},
  {"dataset": "enwiki-2018", "algorithm": "bippr-pair",
   "params": {"source": "Brian May", "target": "Freddie Mercury", "walks": 10000}},
  {"dataset": "enwiki-2018", "algorithm": "bippr-pair",
   "params": {"source": "Brian May", "target": "Freddie Mercury",
              "eps": 1e-6, "workers": 8}}
]}</code></pre>
<p>Repeated queries against the same <code>(dataset, target, alpha,
rmax)</code> reuse a cached reverse-push index, so only the first query
pays the push cost — and indexes are persisted in the datastore, so
even a restarted server serves them from disk instead of recomputing
(<code>GET /api/status</code> reports memory hits, disk hits and misses).
Instead of a flat <code>walks</code> count,
<code>eps</code> requests an additive error and derives the walk count
from it; <code>workers</code> shards the walks across a bounded pool —
estimates are bit-identical for every pool size. The repository's
<code>docs/API.md</code> documents every task parameter.</p>
<h2>Batched queries</h2>
<p>A <code>queries</code> array submits many queries against one dataset
as a <em>single</em> batch task: the graph is loaded once, reverse-push
indexes are shared across subqueries, and
<code>GET /api/tasks/{id}</code> reports per-query progress
(<code>query_states</code>, <code>queries_done</code>) with one result
per subquery. Each entry may name its own <code>algorithm</code> or
inherit the top-level default:</p>
<pre><code>POST /api/tasks
{"dataset": "enwiki-2018", "algorithm": "bippr-pair", "parallelism": 4,
 "queries": [
   {"params": {"source": "Brian May", "target": "Freddie Mercury"}},
   {"params": {"source": "Brian May", "target": "Queen (band)", "walk_reuse": true}},
   {"algorithm": "ppr-target", "params": {"target": "Queen (band)"}}
]}</code></pre>
<p>A top-level <code>parallelism</code> fans the batch's independent
subqueries across a bounded pool (0 = one worker per CPU, capped by the
batch size) — results are bit-identical at every value. Per-query
<code>walk_reuse</code> lets repeated <code>bippr-pair</code> queries
from one source re-weight recorded walk endpoints for new targets
instead of re-walking (<code>GET /api/status</code> reports
<code>endpoint_cache</code> hits, misses and walks avoided).
The response carries a <code>comparison_id</code>; retrieve results at
<code>/api/compare/{id}</code> or view them at <code>/compare/{id}</code>.</p>
<h2>Request classes and deadlines</h2>
<p>Every task (and a top-level batch) accepts a <code>class</code>:
<code>"interactive"</code> marks latency-sensitive traffic — it fills
cheap parameter presets into unset fields (looser <code>rmax</code>,
fewer <code>walks</code>) and applies a strict default deadline.
<code>"batch"</code> marks throughput traffic — queued for a dedicated
executor pool, parameters untouched. Omitting the class keeps
historical behavior bit-identical (plain tasks route interactive
without presets; <code>queries</code> submissions route batch).
Each class has a queue of 128 tasks. A submission runs whole or not at
all: when its tasks do not fit the free slots of the queues they need,
it gets <code>429 Too Many Requests</code> with
<code>Retry-After: 1</code> <em>before</em> any task is registered or
any graph is loaded; a submission with more than 128 tasks of one
class can never fit and gets <code>400 Bad Request</code>.
A <code>timeout_ms</code> field tightens the execution deadline below
the server's limit; a task cancelled mid-walk or mid-push fails with
an error naming the phase, keeping the phase traces it completed.</p>
<h2>Observability</h2>
<p>Done tasks report <code>wait_ms</code>/<code>run_ms</code> and a
per-phase <code>phases</code> tree in their result;
<code>GET /metrics</code> serves a Prometheus scrape of every component
(engine counters, cache tiers, scheduler latencies). The repository's
<code>docs/API.md</code> lists every metric family.</p>
</body></html>{{end}}
`))

type homeData struct {
	Title      string
	Datasets   []datasetInfo
	Algorithms []algorithmInfo
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	data := homeData{Title: "Task builder"}
	for _, d := range s.catalog.All() {
		data.Datasets = append(data.Datasets, datasetInfo{
			Name: d.Name, Kind: d.Kind, Description: d.Description,
			SuggestedSources: d.SuggestedSources,
		})
	}
	s.mu.RLock()
	for name := range s.uploaded {
		data.Datasets = append(data.Datasets, datasetInfo{Name: name, Kind: "uploaded", Description: "user-uploaded dataset"})
	}
	s.mu.RUnlock()
	data.Algorithms = algorithmInfos(s.registry)
	s.render(w, "home", data)
}

type comparePageData struct {
	Title string
	compareResponse
}

func (s *Server) handleComparePage(w http.ResponseWriter, r *http.Request) {
	resp, err := s.compareView(r.PathValue("id"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	s.render(w, "compare", comparePageData{Title: "Comparison", compareResponse: resp})
}

func (s *Server) handleInstructions(w http.ResponseWriter, r *http.Request) {
	s.render(w, "instructions", struct{ Title string }{"Instructions"})
}

func (s *Server) render(w http.ResponseWriter, name string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := uiTemplates.ExecuteTemplate(w, name, data); err != nil {
		// The header is already written; all we can do is close out.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
