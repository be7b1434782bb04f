// Package server implements the platform's API gateway and Web UI:
// the entry point that mediates between users and the computational
// nodes (Figure 1 of the demo paper).
//
// The JSON API exposes:
//
//	GET  /api/algorithms          available algorithms
//	GET  /api/datasets            pre-loaded + uploaded datasets
//	GET  /api/datasets/{name}     structural stats for one dataset
//	POST /api/datasets/{name}     upload a dataset (edgelist/pajek/asd)
//	POST /api/tasks               submit a query set
//	GET  /api/tasks/{id}          poll one task (status + result)
//	GET  /api/compare/{id}        poll a whole query set by permalink
//
// The HTML UI (/, /compare/{id}, /instructions) renders the same
// information server-side.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/task"
	"github.com/cyclerank/cyclerank-go/internal/traffic"
)

// maxUploadBytes caps dataset uploads (64 MiB).
const maxUploadBytes = 64 << 20

// Server is the API gateway. Create one with New and mount it as an
// http.Handler.
type Server struct {
	registry   *algo.Registry
	catalog    *datasets.Catalog
	store      *datastore.Store
	scheduler  *task.Scheduler
	indexStore bippr.IndexStore
	endpoints  *bippr.EndpointCache
	mux        *http.ServeMux

	mu       sync.RWMutex
	uploaded map[string]bool // datasets living in the datastore

	// Cached artifact-tree usage for the status endpoint (see
	// artifactDiskUsage).
	usageMu sync.Mutex
	usageAt time.Time
	usage   artifactUsage

	// Background lifecycle work (startup pre-warm, artifact GC,
	// traffic-sketch persistence), cancelled by Close.
	lifeCancel context.CancelFunc
	lifeWG     sync.WaitGroup
	prewarm    prewarmState
	gc         gcState

	// traffic is the workload frequency sketch behind the learned
	// pre-warm (nil when disabled); trafficState tracks its
	// persistence and the artifact pins it produced.
	traffic      *traffic.Sketch
	trafficState trafficState
	sweepPolicy  datastore.SweepPolicy

	// reg holds the server's own metrics (prewarm, artifact GC); the
	// /metrics scrape merges it with every component registry (see
	// metricsRegistries).
	reg *obs.Registry
}

// Config configures a Server.
type Config struct {
	// Registry resolves algorithms. Nil (the default for deployments)
	// builds the built-in registry with its bidirectional estimator
	// backed by the server's persistent two-tier index store, so
	// reverse-push indexes survive restarts. Passing an explicit
	// registry (tests, custom algorithm sets) keeps whatever caching
	// its estimator was built with — the status endpoint's index-store
	// stats then only reflect the server's own store, which such a
	// registry does not use.
	Registry *algo.Registry
	// Catalog provides the pre-loaded datasets; required.
	Catalog *datasets.Catalog
	// Store persists uploads, results, logs and indexes; required.
	Store *datastore.Store
	// IndexStore overrides the target-index store (default: a
	// bippr.TieredStore over Store).
	IndexStore bippr.IndexStore
	// EndpointCache overrides the walk-endpoint cache behind queries
	// that set walk_reuse (default: a two-tier cache persisting
	// recordings through Store, so warm sources survive restarts).
	// Like IndexStore, it only reaches queries when Registry is nil —
	// an explicit registry keeps whatever caching its estimator was
	// built with, and the status endpoint then reports this cache as
	// idle.
	EndpointCache *bippr.EndpointCache
	// Workers sizes the interactive executor pool (default 2).
	Workers int
	// BatchWorkers sizes the batch-tier executor pool (default:
	// Workers), so queued batch comparisons cannot starve interactive
	// queries of executors — and vice versa.
	BatchWorkers int
	// Admission bounds the interactive tier: concurrency slots,
	// queue depth and estimated-cost backlog, each checked on the
	// submit fast path before any graph loads. Shed submissions
	// return 429 with a Retry-After header. The zero value disables
	// admission control (every submission is admitted, as before).
	Admission task.AdmissionConfig
	// TaskTimeout bounds a single task's execution; zero means no
	// limit. Public deployments should set it. Requests may tighten
	// (never loosen) it per task via the timeout_ms field.
	TaskTimeout time.Duration
	// TrafficTopK sizes the traffic sketch's heavy-hitter list — the
	// keys the learned pre-warm warms and pins on the next boot. 0
	// selects traffic.DefaultTopK; negative disables traffic
	// learning entirely (no sketch, no persistence, no learned
	// pre-warm).
	TrafficTopK int
	// TrafficHalfLife paces the sketch's time decay: every half-life
	// all counters (and the heavy-hitter table) halve, so a key must
	// keep being queried to stay hot and yesterday's burst ages out of
	// the pre-warm pin set instead of being pinned forever. 0 selects
	// DefaultTrafficHalfLife; negative disables decay (the pre-v2
	// behavior: counts accumulate for the sketch's lifetime).
	TrafficHalfLife time.Duration
	// PreWarm starts a background task at construction that loads
	// every catalog dataset with suggested reference nodes and warms
	// their reverse-push indexes and walk-endpoint recordings — from
	// disk when a previous process persisted them, computing and
	// persisting otherwise — so the first user query after a deploy
	// finds its caches hot. Progress is visible under "prewarm" in
	// /api/status; Close cancels the task mid-flight without leaving
	// partial artifacts (all writes are atomic).
	PreWarm bool
	// ArtifactCapBytes bounds the total size of persisted derived
	// artifacts (reverse-push indexes + endpoint recordings): a
	// background sweep reaps the least recently accessed artifacts
	// past the cap (see datastore.SweepArtifactsPolicy). Zero means
	// unlimited — no sweeper runs.
	ArtifactCapBytes int64
	// IndexCapBytes / EndpointCapBytes cap each artifact kind
	// individually, layered under ArtifactCapBytes, so one hot kind
	// cannot evict the other wholesale. Zero disables the per-kind
	// cap; either one (or ArtifactCapBytes) being set runs the
	// sweeper. Artifacts pinned by the learned pre-warm survive both
	// passes.
	IndexCapBytes    int64
	EndpointCapBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — CPU and
	// heap profiles over the same listener as the API. Off by default:
	// profiles expose internals a public deployment should not serve.
	EnablePprof bool
	// SlowQueryThreshold turns on the scheduler's slow-query log:
	// every task running at least this long emits one structured line
	// with its full phase breakdown. Zero disables it.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
}

// New builds the gateway and its scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil || cfg.Store == nil {
		return nil, fmt.Errorf("server: catalog and store are required")
	}
	if cfg.IndexStore == nil {
		cfg.IndexStore = bippr.NewTieredStore(bippr.DefaultCacheSize, cfg.Store)
	}
	if cfg.EndpointCache == nil {
		cfg.EndpointCache = bippr.NewTieredEndpointCache(bippr.DefaultEndpointCacheSize, cfg.Store)
	}
	if cfg.Registry == nil {
		cfg.Registry = algo.NewBuiltinRegistryWith(
			bippr.NewEstimatorWithCaches(cfg.IndexStore, cfg.EndpointCache))
	}
	s := &Server{
		registry:   cfg.Registry,
		catalog:    cfg.Catalog,
		store:      cfg.Store,
		indexStore: cfg.IndexStore,
		endpoints:  cfg.EndpointCache,
		uploaded:   make(map[string]bool),
		reg:        obs.NewRegistry(),
		sweepPolicy: datastore.SweepPolicy{
			TotalBytes: cfg.ArtifactCapBytes,
			KindBytes:  perKindCaps(cfg.IndexCapBytes, cfg.EndpointCapBytes),
		},
	}
	// Uploads that survived a restart are rediscovered from the store.
	if names, err := cfg.Store.ListDatasets(); err == nil {
		for _, n := range names {
			s.uploaded[n] = true
		}
	}

	// The traffic sketch restores from its persisted artifact when one
	// survives (corruption or version skew costs warmth, never a
	// boot), so the learned pre-warm below can act on the PREVIOUS
	// process's workload.
	if cfg.TrafficTopK >= 0 {
		data, _ := cfg.Store.LoadTrafficSketch()
		s.traffic, s.trafficState.restored = traffic.Load(data, cfg.TrafficTopK)
	}
	s.trafficState.init(s.traffic, s.reg)

	sched, err := task.NewScheduler(task.SchedulerConfig{
		Registry:           cfg.Registry,
		Store:              cfg.Store,
		Workers:            cfg.Workers,
		BatchWorkers:       cfg.BatchWorkers,
		TaskTimeout:        cfg.TaskTimeout,
		Admission:          cfg.Admission,
		Traffic:            s.traffic,
		Load:               s.loadDataset,
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		SlowQueryLog:       cfg.SlowQueryLog,
	})
	if err != nil {
		return nil, err
	}
	s.scheduler = sched
	// Seed the cost calibrator with the rates the previous process
	// learned (persisted inside the traffic sketch), so the first
	// predictions after a deploy are measured, not fallback.
	if s.traffic != nil {
		sched.RestoreCalibration(s.traffic.Calibrations())
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	mux.HandleFunc("GET /api/datasets/{name}", s.handleDatasetStats)
	mux.HandleFunc("POST /api/datasets/{name}", s.handleUpload)
	mux.HandleFunc("POST /api/tasks", s.handleSubmit)
	mux.HandleFunc("GET /api/tasks/{id}", s.handleTask)
	mux.HandleFunc("GET /api/compare/{id}", s.handleCompare)
	mux.HandleFunc("GET /", s.handleHome)
	mux.HandleFunc("GET /compare/{id}", s.handleComparePage)
	mux.HandleFunc("GET /instructions", s.handleInstructions)
	s.registerExtensions(mux)
	mux.Handle("GET /metrics", obs.Handler(s.metricsRegistries()...))
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux

	// Background lifecycle work starts only when asked for, so test
	// servers and embedded deployments pay nothing by default.
	lifeCtx, lifeCancel := context.WithCancel(context.Background())
	s.lifeCancel = lifeCancel
	s.prewarm.init(cfg.PreWarm, s.reg)
	s.gc.init(cfg.ArtifactCapBytes, s.reg)
	if cfg.PreWarm {
		s.lifeWG.Add(1)
		go s.runPrewarm(lifeCtx)
	}
	if cfg.ArtifactCapBytes > 0 || len(s.sweepPolicy.KindBytes) > 0 {
		s.lifeWG.Add(1)
		go s.runSweeper(lifeCtx)
	}
	if s.traffic != nil {
		s.lifeWG.Add(1)
		go s.runTrafficSaver(lifeCtx)
		if hl := cfg.trafficHalfLife(); hl > 0 {
			s.lifeWG.Add(1)
			go s.runTrafficDecayer(lifeCtx, hl)
		}
	}
	return s, nil
}

// DefaultTrafficHalfLife is the decay cadence when Config leaves
// TrafficHalfLife zero: hot keys halve hourly, so a key stops looking
// warm roughly a workday after traffic moves away from it.
const DefaultTrafficHalfLife = time.Hour

// trafficHalfLife resolves the configured decay cadence: zero selects
// the default, negative disables decay entirely.
func (c Config) trafficHalfLife() time.Duration {
	switch {
	case c.TrafficHalfLife == 0:
		return DefaultTrafficHalfLife
	case c.TrafficHalfLife < 0:
		return 0
	}
	return c.TrafficHalfLife
}

// perKindCaps assembles the sweep policy's per-kind cap map from the
// two config fields, omitting unset kinds so the policy's "no cap"
// semantics stay the map's absence, not a zero.
func perKindCaps(idx, ep int64) map[string]int64 {
	caps := make(map[string]int64, 2)
	if idx > 0 {
		caps["indexes"] = idx
	}
	if ep > 0 {
		caps["endpoints"] = ep
	}
	if len(caps) == 0 {
		return nil
	}
	return caps
}

// Close cancels the server's background lifecycle work (startup
// pre-warm, artifact GC, traffic persistence) and waits for it to
// stop. The traffic saver writes the sketch one final time on the way
// out, so the workload observed this boot informs the next boot's
// learned pre-warm. In-flight artifact writes finish atomically, so a
// close mid-pre-warm never leaves a partial artifact — at worst a
// missing one. Close does not stop the scheduler; call
// Scheduler().Shutdown for that.
func (s *Server) Close() {
	s.lifeCancel()
	s.lifeWG.Wait()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Scheduler exposes the underlying scheduler (used by tests and by
// embedded deployments that submit tasks directly).
func (s *Server) Scheduler() *task.Scheduler { return s.scheduler }

// metricsRegistries collects every registry the /metrics scrape
// merges: the process-wide default (bippr hot-path counters), the
// per-instance component registries (scheduler, index store, endpoint
// cache, datastore, the algorithm registry's score-vector memo) and
// the server's own (prewarm, artifact GC). Nil entries — a custom
// IndexStore without metrics — are skipped by the writer.
func (s *Server) metricsRegistries() []*obs.Registry {
	return append([]*obs.Registry{
		obs.Default(),
		s.reg,
		s.scheduler.MetricsRegistry(),
		bippr.StoreMetricsRegistry(s.indexStore),
		s.endpoints.MetricsRegistry(),
		s.store.MetricsRegistry(),
	}, s.registry.MetricsRegistries()...)
}

// loadDataset resolves a dataset name: catalog datasets are generated,
// uploaded datasets are read from the datastore.
func (s *Server) loadDataset(name string) (*graph.Graph, error) {
	if d, err := s.catalog.Get(name); err == nil {
		return d.Load()
	}
	s.mu.RLock()
	up := s.uploaded[name]
	s.mu.RUnlock()
	if up {
		return s.store.LoadDataset(name)
	}
	return nil, fmt.Errorf("server: unknown dataset %q", name)
}

// datasetExists reports whether a dataset name is resolvable.
func (s *Server) datasetExists(name string) bool {
	if _, err := s.catalog.Get(name); err == nil {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.uploaded[name]
}

// --- JSON helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding errors after the header is written can only be logged;
	// the connection is already committed.
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// --- API handlers ---

type algorithmInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	NeedsSource bool   `json:"needs_source"`
	NeedsTarget bool   `json:"needs_target"`
}

// algorithmInfos renders the registry for both the JSON API and the
// HTML UI, so the two views cannot drift.
func algorithmInfos(r *algo.Registry) []algorithmInfo {
	var out []algorithmInfo
	for _, a := range r.All() {
		out = append(out, algorithmInfo{
			Name:        a.Name(),
			Description: a.Description(),
			NeedsSource: a.NeedsSource(),
			NeedsTarget: algo.NeedsTarget(a),
		})
	}
	return out
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, algorithmInfos(s.registry))
}

type datasetInfo struct {
	Name             string   `json:"name"`
	Kind             string   `json:"kind"`
	Description      string   `json:"description"`
	SuggestedSources []string `json:"suggested_sources,omitempty"`
	Uploaded         bool     `json:"uploaded,omitempty"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	var out []datasetInfo
	for _, d := range s.catalog.All() {
		out = append(out, datasetInfo{
			Name:             d.Name,
			Kind:             d.Kind,
			Description:      d.Description,
			SuggestedSources: d.SuggestedSources,
		})
	}
	s.mu.RLock()
	for name := range s.uploaded {
		out = append(out, datasetInfo{
			Name: name, Kind: "uploaded",
			Description: "user-uploaded dataset", Uploaded: true,
		})
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

type datasetStats struct {
	Name  string      `json:"name"`
	Stats graph.Stats `json:"stats"`
}

func (s *Server) handleDatasetStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, err := s.loadDataset(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, datasetStats{Name: name, Stats: graph.ComputeStats(g)})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.catalog.Get(name); err == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("server: %q is a pre-loaded dataset and cannot be replaced", name))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: reading upload: %w", err))
		return
	}
	if len(body) > maxUploadBytes {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("server: upload exceeds %d bytes", maxUploadBytes))
		return
	}
	format := formats.Format(r.URL.Query().Get("format"))
	if format == "" {
		format, err = formats.Detect(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if !format.Valid() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %q", formats.ErrUnknownFormat, format))
		return
	}
	g, err := formats.Read(bytes.NewReader(body), format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.store.SaveDataset(name, g); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.uploaded[name] = true
	s.mu.Unlock()
	s.scheduler.InvalidateDataset(name)
	writeJSON(w, http.StatusCreated, datasetStats{Name: name, Stats: graph.ComputeStats(g)})
}

// submitRequest accepts two submission shapes, combinable in one
// request:
//
//   - tasks: independent (dataset, algorithm, params) triples, each
//     its own scheduled task — the original API.
//   - queries + dataset [+ algorithm]: a *batch* — many queries
//     (multiple targets and/or sources) against one dataset, fused
//     into a single scheduled task that loads the graph once and
//     shares the reverse-push index store and walk worker pool across
//     subqueries. Each query may name its own algorithm or inherit
//     the top-level default.
type submitRequest struct {
	Tasks []task.Spec `json:"tasks"`

	Dataset   string         `json:"dataset,omitempty"`
	Algorithm string         `json:"algorithm,omitempty"`
	Queries   []task.SubSpec `json:"queries,omitempty"`
	// Parallelism bounds how many of the batch's subqueries run
	// concurrently (0 = GOMAXPROCS, capped by batch size; results are
	// bit-identical at every value).
	Parallelism int `json:"parallelism,omitempty"`
	// Params is accepted only to *reject* it: each batch query carries
	// its own params, and silently dropping a top-level object a
	// client expected to apply to every query would return plausible
	// results computed with the wrong parameters.
	Params algo.Params `json:"params,omitempty"`
	// Class assigns the batch a request class ("interactive" or
	// "batch"; default: batch for a queries submission). Tasks in the
	// tasks array carry their own class field.
	Class task.Class `json:"class,omitempty"`
	// TimeoutMS tightens the batch's execution deadline below the
	// server's TaskTimeout (it can never loosen it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type submitResponse struct {
	ComparisonID string   `json:"comparison_id"`
	TaskIDs      []string `json:"task_ids"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding request: %w", err))
		return
	}
	builder := task.NewBuilder(s.registry, s.datasetExists)
	for i, spec := range req.Tasks {
		if err := builder.Add(spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("task %d: %w", i, err))
			return
		}
	}
	// Top-level parallelism only shapes the top-level queries batch;
	// accepting it without one would silently run any tasks-array
	// batches at the default width the client did not choose (same
	// rationale as the Params rejection below).
	if req.Parallelism != 0 && len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("server: top-level parallelism requires a top-level queries array; for batches inside tasks, set parallelism on the batch entry itself"))
		return
	}
	if len(req.Queries) > 0 {
		if req.Params != (algo.Params{}) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("server: top-level params are not applied to batch queries; set params on each entry of the queries array"))
			return
		}
		batch := task.Spec{
			Dataset:     req.Dataset,
			Algorithm:   req.Algorithm,
			Queries:     req.Queries,
			Parallelism: req.Parallelism,
			Class:       req.Class,
			TimeoutMS:   req.TimeoutMS,
		}
		if err := builder.Add(batch); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch: %w", err))
			return
		}
	}
	if builder.Len() == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: empty query set"))
		return
	}
	qs, ids, err := s.scheduler.Submit(builder.Specs())
	if err != nil {
		// A shed is not a failure: admission control refused the work
		// before anything was registered or loaded. 429 + Retry-After
		// tells well-behaved clients exactly when to come back.
		var shed *task.ShedError
		if errors.As(err, &shed) {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((shed.RetryAfter+time.Second-1)/time.Second)))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ComparisonID: qs, TaskIDs: ids})
}

type taskView struct {
	Task   task.Task    `json:"task"`
	Result *task.Result `json:"result,omitempty"`
	Log    string       `json:"log,omitempty"`
}

func (s *Server) taskView(id string, includeLog bool) (taskView, error) {
	t, err := s.scheduler.Status(id)
	if err != nil {
		return taskView{}, err
	}
	view := taskView{Task: t}
	// Batch tasks persist per-subquery progress, so a batch has a
	// readable (partial) result document while running — and keeps it
	// if it later times out or is cancelled: the subresults completed
	// before the interruption stay visible.
	if t.State == task.StateDone || t.IsBatch() {
		if doc, err := s.scheduler.LoadResult(id); err == nil {
			view.Result = &doc
		}
	}
	if includeLog {
		if log, err := s.store.ReadLog(id); err == nil {
			view.Log = log
		}
	}
	return view, nil
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	view, err := s.taskView(r.PathValue("id"), r.URL.Query().Get("log") == "1")
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

type compareResponse struct {
	ComparisonID string     `json:"comparison_id"`
	Tasks        []taskView `json:"tasks"`
	Done         bool       `json:"done"`
}

func (s *Server) compareView(id string) (compareResponse, error) {
	tasks, err := s.scheduler.QuerySet(id)
	if err != nil {
		return compareResponse{}, err
	}
	resp := compareResponse{ComparisonID: id, Done: true}
	for _, t := range tasks {
		view, err := s.taskView(t.ID, false)
		if err != nil {
			return compareResponse{}, err
		}
		if !t.State.Terminal() {
			resp.Done = false
		}
		resp.Tasks = append(resp.Tasks, view)
	}
	return resp, nil
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	resp, err := s.compareView(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
