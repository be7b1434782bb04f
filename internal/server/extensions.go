package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// registerExtensions mounts the endpoints beyond the demo's minimum:
// task cancellation, upload deletion, quantified comparison and the
// platform status.
func (s *Server) registerExtensions(mux *http.ServeMux) {
	mux.HandleFunc("DELETE /api/tasks/{id}", s.handleCancelTask)
	mux.HandleFunc("DELETE /api/datasets/{name}", s.handleDeleteDataset)
	mux.HandleFunc("GET /api/compare/{id}/agreement", s.handleAgreement)
	mux.HandleFunc("GET /api/status", s.handleStatus)
}

// statusResponse is the platform health/workload snapshot.
type statusResponse struct {
	Scheduler  task.Metrics     `json:"scheduler"`
	Datasets   int              `json:"datasets"`
	Uploads    int              `json:"uploads"`
	Algorithms int              `json:"algorithms"`
	IndexStore indexStoreStatus `json:"index_store"`
	// EndpointCache surfaces the walk-endpoint reuse counters: hits
	// are queries that re-weighted a recorded walk pass instead of
	// simulating walks (walks_avoided totals what they skipped),
	// split by tier like the index store now that recordings persist.
	EndpointCache endpointCacheStatus `json:"endpoint_cache"`
	// ArtifactGC reports the size-capped artifact sweeper (cap_bytes
	// 0 = disabled).
	ArtifactGC GCStatus `json:"artifact_gc"`
	// Prewarm reports the startup pre-warm task's progress.
	Prewarm PrewarmStatus `json:"prewarm"`
	// Serving reports the serving tier: the batch pool size,
	// admitted/shed totals, deadline failures and graph loads.
	Serving task.AdmissionSnapshot `json:"serving"`
	// Graphs lists the datasets resident in the scheduler's graph
	// cache with the bytes each pins — memory_bytes includes every
	// derived hot-path view; layout_bytes and sample_table_bytes are
	// the per-view shares — so capacity planning sees the real
	// residency, not just dataset counts.
	Graphs []task.LoadedGraphRow `json:"graphs"`
}

// indexStoreStatus surfaces the target-index store's tiered counters
// plus the persisted artifacts on disk, so warm-vs-cold behaviour —
// in particular a restart finding its indexes — is observable from
// the outside.
type indexStoreStatus struct {
	bippr.StoreStats
	DiskFiles int   `json:"disk_files"`
	DiskBytes int64 `json:"disk_bytes"`
}

// endpointCacheStatus is the same shape for the walk-endpoint cache:
// reuse counters plus the persisted recordings on disk.
type endpointCacheStatus struct {
	bippr.EndpointStats
	DiskFiles int   `json:"disk_files"`
	DiskBytes int64 `json:"disk_bytes"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	uploads := len(s.uploaded)
	s.mu.RUnlock()
	usage := s.artifactDiskUsage()
	idx := indexStoreStatus{StoreStats: s.indexStore.Stats(),
		DiskFiles: usage.idxFiles, DiskBytes: usage.idxBytes}
	ep := endpointCacheStatus{EndpointStats: s.endpoints.Stats(),
		DiskFiles: usage.epFiles, DiskBytes: usage.epBytes}
	writeJSON(w, http.StatusOK, statusResponse{
		Scheduler:     s.scheduler.Metrics(),
		Datasets:      s.catalog.Len() + uploads,
		Uploads:       uploads,
		Algorithms:    len(s.registry.Names()),
		IndexStore:    idx,
		EndpointCache: ep,
		ArtifactGC:    s.gc.snapshot(),
		Prewarm:       s.prewarm.snapshot(),
		Serving:       s.scheduler.AdmissionStats(),
		Graphs:        s.scheduler.LoadedGraphs(),
	})
}

// artifactUsageTTL bounds how often a status poll re-walks the
// artifact trees: monitoring systems poll /api/status aggressively,
// and the walk stats every artifact file.
const artifactUsageTTL = 10 * time.Second

// artifactUsage is the cached on-disk usage of both artifact kinds.
type artifactUsage struct {
	idxFiles, epFiles int
	idxBytes, epBytes int64
}

// artifactDiskUsage returns the persisted-artifact usage, cached for
// artifactUsageTTL. Best-effort observability: a walk error reports
// the last known values rather than failing the health endpoint.
func (s *Server) artifactDiskUsage() artifactUsage {
	s.usageMu.Lock()
	defer s.usageMu.Unlock()
	if time.Since(s.usageAt) < artifactUsageTTL {
		return s.usage
	}
	if files, bytes, err := s.store.IndexUsage(); err == nil {
		s.usage.idxFiles, s.usage.idxBytes = files, bytes
	}
	if files, bytes, err := s.store.EndpointUsage(); err == nil {
		s.usage.epFiles, s.usage.epBytes = files, bytes
	}
	s.usageAt = time.Now()
	return s.usage
}

func (s *Server) handleCancelTask(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.scheduler.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	t, err := s.scheduler.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, taskView{Task: t})
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.catalog.Get(name); err == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("server: %q is a pre-loaded dataset and cannot be deleted", name))
		return
	}
	// Unregister, then delete, then drop: the mirror of an upload's
	// sequence, under the same lock (see datasetMu). The graph is
	// dropped even when a file could not be removed, since the name is
	// no longer listed.
	s.datasetMu.Lock()
	s.mu.Lock()
	known := s.uploaded[name]
	delete(s.uploaded, name)
	s.mu.Unlock()
	var err error
	if known {
		err = s.store.DeleteDataset(name)
		s.scheduler.ReplaceDataset(name, nil)
	}
	s.datasetMu.Unlock()
	switch {
	case !known:
		writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown dataset %q", name))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// agreementPair quantifies how much two completed tasks of a query set
// agree — the metric behind the demo's side-by-side view.
type agreementPair struct {
	TaskA        string    `json:"task_a"`
	TaskB        string    `json:"task_b"`
	AlgorithmA   string    `json:"algorithm_a"`
	AlgorithmB   string    `json:"algorithm_b"`
	Jaccard      float64   `json:"jaccard"`
	RBO          float64   `json:"rbo"`
	OverlapCurve []float64 `json:"overlap_curve"`
}

type agreementResponse struct {
	ComparisonID string          `json:"comparison_id"`
	K            int             `json:"k"`
	Pairs        []agreementPair `json:"pairs"`
}

func (s *Server) handleAgreement(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tasks, err := s.scheduler.QuerySet(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		k, err = strconv.Atoi(q)
		if err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad depth k=%q", q))
			return
		}
	}

	type done struct {
		t   task.Task
		top []string
	}
	var completed []done
	for _, t := range tasks {
		// Batch tasks carry per-subquery results, not one ranking; an
		// empty batch Top compared pairwise would render as zero
		// agreement instead of "not comparable".
		if t.State != task.StateDone || t.IsBatch() {
			continue
		}
		doc, err := s.scheduler.LoadResult(t.ID)
		if err != nil {
			continue
		}
		labels := make([]string, 0, k)
		for _, e := range doc.Top {
			if len(labels) == k {
				break
			}
			labels = append(labels, e.Label)
		}
		completed = append(completed, done{t: t, top: labels})
	}
	if len(completed) < 2 {
		writeError(w, http.StatusConflict,
			fmt.Errorf("server: agreement needs at least 2 completed tasks, have %d", len(completed)))
		return
	}

	resp := agreementResponse{ComparisonID: id, K: k}
	for i := 0; i < len(completed); i++ {
		for j := i + 1; j < len(completed); j++ {
			a, b := completed[i], completed[j]
			rbo, err := ranking.ListRBO(a.top, b.top, 0.9)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			resp.Pairs = append(resp.Pairs, agreementPair{
				TaskA: a.t.ID, TaskB: b.t.ID,
				AlgorithmA: a.t.Algorithm, AlgorithmB: b.t.Algorithm,
				Jaccard:      ranking.ListJaccard(a.top, b.top),
				RBO:          rbo,
				OverlapCurve: ranking.ListOverlapCurve(a.top, b.top),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
