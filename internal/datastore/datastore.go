// Package datastore implements the platform's persistent storage: the
// component of the demo architecture responsible for datasets, task
// results and logs (Figure 1 of the paper).
//
// The store is a directory tree:
//
//	root/
//	  datasets/<name>.asd         uploaded graphs (ASD format)
//	  datasets/<name>.labels      label sidecars
//	  datasets/<name>.fp          structural graph fingerprint sidecars
//	  results/<task-id>.json      completed task results
//	  logs/<task-id>.log          per-task execution logs
//	  indexes/<graph-fp>/<key>.idx    persisted reverse-push target indexes
//	  endpoints/<graph-fp>/<key>.ep   persisted walk-endpoint recordings
//
// Derived artifacts (indexes, endpoints) are opaque blobs to this
// package (the bippr codecs own their formats); they are grouped per
// structural graph fingerprint so a re-uploaded dataset naturally
// orphans its predecessor's artifacts instead of serving them.
// Orphans are reclaimed by two lifecycle mechanisms: DeleteDataset
// removes a deleted dataset's artifact trees once no other stored
// dataset shares the fingerprint (refcounted through the .fp
// sidecars), and SweepArtifactsPolicy enforces size caps by reaping
// the least recently *accessed* artifacts first. Access recency is
// tracked in each artifact's mtime, which loads refresh — the
// filesystem atime is deliberately not trusted (noatime/relatime
// mounts would freeze it).
//
// All writes are atomic (temp file + fsync + rename + directory
// fsync) so a crashed writer never leaves a partially visible
// artifact and a completed write survives power loss. A Store is safe
// for concurrent use.
package datastore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// Store is a file-backed datastore rooted at a directory. Its I/O
// metrics (fsync counts, artifact read/write latency) are per-instance
// and exported through MetricsRegistry.
type Store struct {
	root string
	mu   sync.Mutex

	reg               *obs.Registry
	fsyncs            *obs.Counter
	artifactReadSecs  *obs.Histogram
	artifactWriteSecs *obs.Histogram
}

// artifactKinds maps each derived-artifact kind to its file
// extension. Both kinds share the save/load/usage/sweep machinery;
// the extension keeps a misplaced blob from ever being decoded as the
// wrong kind.
var artifactKinds = map[string]string{
	"indexes":   ".idx",
	"endpoints": ".ep",
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"datasets", "results", "logs", "indexes", "endpoints", "traffic"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("datastore: %w", err)
		}
	}
	r := obs.NewRegistry()
	return &Store{
		root:              dir,
		reg:               r,
		fsyncs:            r.Counter("cyclerank_datastore_fsyncs_total", "File and directory fsyncs performed by durable writes."),
		artifactReadSecs:  r.Histogram("cyclerank_datastore_artifact_read_seconds", "Persisted artifact read latency (successful loads).", nil),
		artifactWriteSecs: r.Histogram("cyclerank_datastore_artifact_write_seconds", "Persisted artifact durable-write latency (successful saves).", nil),
	}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// MetricsRegistry returns the store's I/O metrics registry, for
// merging into a scrape endpoint.
func (s *Store) MetricsRegistry() *obs.Registry { return s.reg }

// validName guards against path traversal in user-supplied names.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("datastore: empty name")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." || strings.Contains(name, "..") {
		return fmt.Errorf("datastore: invalid name %q", name)
	}
	return nil
}

// atomicWrite writes data to path via a temp file, fsync, rename, and
// a final fsync of the containing directory. The rename makes the
// artifact appear atomically; the file sync makes its *contents*
// durable before it becomes visible; the directory sync makes the
// rename itself durable, so a crash immediately after atomicWrite
// returns cannot roll the directory entry back to the old (or no)
// artifact.
func (s *Store) atomicWrite(path string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("datastore: %w", err)
	}
	s.fsyncs.Inc()
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	return s.syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename within it survives
// a crash. Filesystems that reject directory fsync (some network and
// FUSE mounts) degrade to the pre-sync durability rather than failing
// the write.
func (s *Store) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("datastore: syncing %s: %w", dir, err)
	}
	s.fsyncs.Inc()
	return nil
}

// SaveDataset stores g under the given name, overwriting any previous
// dataset with that name. Labels, when present, are stored in a
// sidecar so round-trips preserve them. A second sidecar records the
// graph's structural fingerprint, which DeleteDataset later uses to
// refcount the derived-artifact trees the dataset's graph hashed to.
func (s *Store) SaveDataset(name string, g *graph.Graph) error {
	if err := validName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gpath := filepath.Join(s.root, "datasets", name+".asd")
	lpath := filepath.Join(s.root, "datasets", name+".labels")
	err := s.atomicWrite(gpath, func(f *os.File) error {
		return formats.WriteASD(f, g)
	})
	if err != nil {
		return err
	}
	err = s.atomicWrite(filepath.Join(s.root, "datasets", name+".fp"), func(f *os.File) error {
		_, err := fmt.Fprintln(f, graph.Fingerprint(g))
		return err
	})
	if err != nil {
		return err
	}
	if g.Labels() == nil {
		os.Remove(lpath)
		return nil
	}
	return s.atomicWrite(lpath, func(f *os.File) error {
		for _, l := range g.Labels().Names() {
			if strings.ContainsRune(l, '\n') {
				return fmt.Errorf("datastore: label with newline: %q", l)
			}
			if _, err := fmt.Fprintln(f, l); err != nil {
				return err
			}
		}
		return nil
	})
}

// datasetFingerprint resolves the stored fingerprint of a dataset:
// from the .fp sidecar when present, otherwise (datasets saved before
// sidecars existed) by loading the graph and hashing it. ok is false
// when neither works.
func (s *Store) datasetFingerprint(name string) (fp string, ok bool) {
	data, err := os.ReadFile(filepath.Join(s.root, "datasets", name+".fp"))
	if err == nil {
		if fp := strings.TrimSpace(string(data)); fp != "" {
			return fp, true
		}
	}
	g, err := s.LoadDataset(name)
	if err != nil {
		return "", false
	}
	return graph.Fingerprint(g), true
}

// fingerprintShared reports whether any stored dataset other than
// exclude has the given fingerprint, judged by the .fp sidecars.
func (s *Store) fingerprintShared(fp, exclude string) bool {
	entries, err := os.ReadDir(filepath.Join(s.root, "datasets"))
	if err != nil {
		// Unreadable directory: assume shared — keeping an orphaned
		// artifact tree costs disk the sweep reclaims; deleting a
		// shared one costs another dataset its warm cache.
		return true
	}
	for _, e := range entries {
		name, isFP := strings.CutSuffix(e.Name(), ".fp")
		if !isFP || name == exclude {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.root, "datasets", e.Name()))
		if err == nil && strings.TrimSpace(string(data)) == fp {
			return true
		}
	}
	return false
}

// LoadDataset retrieves a stored dataset by name.
func (s *Store) LoadDataset(name string) (*graph.Graph, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	gpath := filepath.Join(s.root, "datasets", name+".asd")
	gf, err := os.Open(gpath)
	if err != nil {
		return nil, fmt.Errorf("datastore: dataset %q: %w", name, err)
	}
	defer gf.Close()

	lpath := filepath.Join(s.root, "datasets", name+".labels")
	lf, err := os.Open(lpath)
	if err != nil {
		if os.IsNotExist(err) {
			return formats.ReadASD(gf)
		}
		return nil, fmt.Errorf("datastore: dataset %q labels: %w", name, err)
	}
	defer lf.Close()
	return formats.ReadASDWithLabels(gf, lf)
}

// DeleteDataset removes a stored dataset. Deleting a missing dataset
// is not an error.
//
// The dataset's derived artifacts (indexes, endpoint recordings under
// its graph's fingerprint) are deleted too — unless another stored
// dataset's graph hashed to the same fingerprint, in which case the
// artifacts are still serving that dataset and must survive. The
// refcount reads the .fp sidecars, so it never loads other datasets'
// graphs; a dataset saved before sidecars existed is invisible to it,
// which at worst deletes a cache that dataset will transparently
// recompute.
func (s *Store) DeleteDataset(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fp, haveFP := s.datasetFingerprint(name)
	for _, p := range []string{
		filepath.Join(s.root, "datasets", name+".asd"),
		filepath.Join(s.root, "datasets", name+".labels"),
		filepath.Join(s.root, "datasets", name+".fp"),
	} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("datastore: %w", err)
		}
	}
	if haveFP && !s.fingerprintShared(fp, name) {
		return s.DeleteArtifacts(fp)
	}
	return nil
}

// ListDatasets returns the names of all stored datasets, sorted.
func (s *Store) ListDatasets() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "datasets"))
	if err != nil {
		return nil, fmt.Errorf("datastore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".asd"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// SaveResult stores an arbitrary JSON-encodable result document under
// a task id. It takes no store-wide lock: each write goes through its
// own temp file and atomic rename (readers always see a complete
// document), and only one executor owns a task id at a time — so one
// task's fsync latency never stalls another's persistence.
func (s *Store) SaveResult(taskID string, doc any) error {
	if err := validName(taskID); err != nil {
		return err
	}
	path := filepath.Join(s.root, "results", taskID+".json")
	return s.atomicWrite(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fmt.Errorf("datastore: encoding result %s: %w", taskID, err)
		}
		return nil
	})
}

// LoadResult decodes a stored result document into out.
func (s *Store) LoadResult(taskID string, out any) error {
	if err := validName(taskID); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(s.root, "results", taskID+".json"))
	if err != nil {
		return fmt.Errorf("datastore: result %q: %w", taskID, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("datastore: decoding result %q: %w", taskID, err)
	}
	return nil
}

// HasResult reports whether a result exists for the task id.
func (s *Store) HasResult(taskID string) bool {
	if validName(taskID) != nil {
		return false
	}
	_, err := os.Stat(filepath.Join(s.root, "results", taskID+".json"))
	return err == nil
}

// ListResults returns all stored result task ids, sorted.
func (s *Store) ListResults() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "results"))
	if err != nil {
		return nil, fmt.Errorf("datastore: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// AppendLog appends a line to the task's execution log.
func (s *Store) AppendLog(taskID, line string) error {
	if err := validName(taskID); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.root, "logs", taskID+".log")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, line); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	return nil
}

// saveArtifact persists one derived artifact under
// <kind>/<graphFP>/<key><ext>. The blob is opaque to the store (the
// bippr codecs own the formats). Writes are atomic and durable like
// every other artifact, so a crash never leaves a torn artifact — at
// worst a missing one, which the caches treat as a miss.
//
// Like SaveResult, saveArtifact takes no store-wide lock: the temp
// file + atomic rename protocol is self-contained, concurrent writers
// of one key are already serialized by the caches' single-flight, and
// distinct keys must not queue behind each other's fsyncs.
func (s *Store) saveArtifact(kind, graphFP, key string, data []byte) error {
	ext, ok := artifactKinds[kind]
	if !ok {
		return fmt.Errorf("datastore: unknown artifact kind %q", kind)
	}
	if err := validName(graphFP); err != nil {
		return err
	}
	if err := validName(key); err != nil {
		return err
	}
	dir := filepath.Join(s.root, kind, graphFP)
	if _, err := os.Stat(dir); err != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("datastore: %w", err)
		}
		// The fingerprint directory is new: sync its parent so the
		// directory entry itself survives a crash — atomicWrite below
		// only syncs the file and the fingerprint directory.
		if err := s.syncDir(filepath.Join(s.root, kind)); err != nil {
			return err
		}
	}
	t0 := time.Now()
	err := s.atomicWrite(filepath.Join(dir, key+ext), func(f *os.File) error {
		if _, err := f.Write(data); err != nil {
			return fmt.Errorf("datastore: writing %s %s/%s: %w", kind, graphFP, key, err)
		}
		return nil
	})
	if err == nil {
		s.artifactWriteSecs.ObserveSince(t0)
	}
	return err
}

// loadArtifact reads a persisted artifact. A missing artifact returns
// an error wrapping fs.ErrNotExist; callers treat any error as a
// cache miss. A successful load refreshes the artifact's mtime — the
// access clock SweepArtifactsPolicy orders evictions by —
// best-effort.
func (s *Store) loadArtifact(kind, graphFP, key string) ([]byte, error) {
	ext, ok := artifactKinds[kind]
	if !ok {
		return nil, fmt.Errorf("datastore: unknown artifact kind %q", kind)
	}
	if err := validName(graphFP); err != nil {
		return nil, err
	}
	if err := validName(key); err != nil {
		return nil, err
	}
	path := filepath.Join(s.root, kind, graphFP, key+ext)
	t0 := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("datastore: %s %s/%s: %w", kind, graphFP, key, err)
	}
	s.artifactReadSecs.ObserveSince(t0)
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return data, nil
}

// SaveIndex persists one reverse-push index artifact under
// indexes/<graphFP>/<key>.idx. This method implements bippr.DiskTier.
func (s *Store) SaveIndex(graphFP, key string, data []byte) error {
	return s.saveArtifact("indexes", graphFP, key, data)
}

// LoadIndex reads a persisted index artifact. This method implements
// bippr.DiskTier.
func (s *Store) LoadIndex(graphFP, key string) ([]byte, error) {
	return s.loadArtifact("indexes", graphFP, key)
}

// SaveEndpoints persists one walk-endpoint recording under
// endpoints/<graphFP>/<key>.ep. This method implements
// bippr.EndpointDiskTier.
func (s *Store) SaveEndpoints(graphFP, key string, data []byte) error {
	return s.saveArtifact("endpoints", graphFP, key, data)
}

// LoadEndpoints reads a persisted walk-endpoint recording. This
// method implements bippr.EndpointDiskTier.
func (s *Store) LoadEndpoints(graphFP, key string) ([]byte, error) {
	return s.loadArtifact("endpoints", graphFP, key)
}

// artifactFile is one persisted artifact as the sweep sees it.
type artifactFile struct {
	path  string
	bytes int64
	atime time.Time // mtime, refreshed by loads — see the package comment
}

// walkArtifacts lists every persisted artifact of the given kind.
func (s *Store) walkArtifacts(kind string) ([]artifactFile, error) {
	ext := artifactKinds[kind]
	var out []artifactFile
	err := filepath.WalkDir(filepath.Join(s.root, kind), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ext) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			// The file vanished mid-walk (a concurrent sweep or
			// delete); skip it rather than failing the listing.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		out = append(out, artifactFile{path: path, bytes: info.Size(), atime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("datastore: %w", err)
	}
	return out, nil
}

// ArtifactUsage reports how many artifacts of one kind ("indexes" or
// "endpoints") the store holds and their total size in bytes — the
// on-disk side of the warm-cache observability surfaced by the
// server's status endpoint.
func (s *Store) ArtifactUsage(kind string) (files int, bytes int64, err error) {
	if _, ok := artifactKinds[kind]; !ok {
		return 0, 0, fmt.Errorf("datastore: unknown artifact kind %q", kind)
	}
	arts, err := s.walkArtifacts(kind)
	if err != nil {
		return 0, 0, err
	}
	for _, a := range arts {
		bytes += a.bytes
	}
	return len(arts), bytes, nil
}

// IndexUsage reports the persisted index artifacts' count and size.
func (s *Store) IndexUsage() (files int, bytes int64, err error) {
	return s.ArtifactUsage("indexes")
}

// EndpointUsage reports the persisted endpoint recordings' count and
// size.
func (s *Store) EndpointUsage() (files int, bytes int64, err error) {
	return s.ArtifactUsage("endpoints")
}

// SweepStats reports one artifact sweep: what remains and what was
// reaped.
type SweepStats struct {
	// Files / Bytes are the artifacts remaining after the sweep,
	// across both kinds.
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
	// Reaped / ReapedBytes count the artifacts this sweep removed.
	Reaped      int   `json:"reaped"`
	ReapedBytes int64 `json:"reaped_bytes"`
}

// SweepPolicy configures an artifact sweep. Each limit is independent
// and zero disables it.
type SweepPolicy struct {
	// TotalBytes caps the combined size of every derived artifact.
	TotalBytes int64
	// KindBytes caps each artifact kind ("indexes", "endpoints")
	// separately — reverse-push indexes and walk-endpoint recordings
	// age differently (indexes serve every query against a target,
	// recordings only walk-reuse queries from a source), so one kind
	// must not be able to evict the whole budget of the other.
	KindBytes map[string]int64
	// Pinned artifacts — keyed by store-relative slash path, e.g.
	// "indexes/<graphFP>/<key>.idx" — are never reaped. The learned
	// pre-warm pins the artifacts observed traffic is hottest on:
	// pinning wins over every cap.
	Pinned map[string]bool
}

// sweepEntry is one artifact during a policy sweep.
type sweepEntry struct {
	artifactFile
	kind    string
	removed bool
}

// SweepArtifactsPolicy enforces a sweep policy: first each per-kind
// cap, then the total cap, each reaping the least recently accessed
// unpinned artifacts first — LRU by the mtime access clock loads
// refresh, with the path as a deterministic tiebreak. A policy with
// no caps only reports usage.
//
// Reaping never races a reader into corruption: loads open the file
// before reading, and an unlinked-but-open file remains fully
// readable (POSIX), so a concurrent load either sees the complete
// artifact or a clean not-exist miss. Emptied fingerprint directories
// are removed best-effort.
func (s *Store) SweepArtifactsPolicy(pol SweepPolicy) (SweepStats, error) {
	var entries []*sweepEntry
	kindBytes := make(map[string]int64)
	for kind := range artifactKinds {
		arts, err := s.walkArtifacts(kind)
		if err != nil {
			return SweepStats{}, err
		}
		for _, a := range arts {
			entries = append(entries, &sweepEntry{artifactFile: a, kind: kind})
			kindBytes[kind] += a.bytes
		}
	}
	stats := SweepStats{Files: len(entries)}
	for _, e := range entries {
		stats.Bytes += e.bytes
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].atime.Equal(entries[j].atime) {
			return entries[i].atime.Before(entries[j].atime)
		}
		return entries[i].path < entries[j].path
	})

	pinned := func(e *sweepEntry) bool {
		if len(pol.Pinned) == 0 {
			return false
		}
		rel, err := filepath.Rel(s.root, e.path)
		return err == nil && pol.Pinned[filepath.ToSlash(rel)]
	}
	remove := func(e *sweepEntry) {
		e.removed = true
		if err := os.Remove(e.path); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				// Already gone (concurrent delete); treat as reaped
				// space either way so the accounting cannot loop.
				stats.Files--
				stats.Bytes -= e.bytes
				kindBytes[e.kind] -= e.bytes
			}
			return
		}
		stats.Files--
		stats.Bytes -= e.bytes
		kindBytes[e.kind] -= e.bytes
		stats.Reaped++
		stats.ReapedBytes += e.bytes
		// Drop the fingerprint directory once its last artifact is
		// gone; Remove refuses non-empty directories, so this is safe
		// against concurrent writers.
		_ = os.Remove(filepath.Dir(e.path))
	}

	for kind, limit := range pol.KindBytes {
		if limit <= 0 {
			continue
		}
		for _, e := range entries {
			if kindBytes[kind] <= limit {
				break
			}
			if e.removed || e.kind != kind || pinned(e) {
				continue
			}
			remove(e)
		}
	}
	if pol.TotalBytes > 0 {
		for _, e := range entries {
			if stats.Bytes <= pol.TotalBytes {
				break
			}
			if e.removed || pinned(e) {
				continue
			}
			remove(e)
		}
	}
	return stats, nil
}

// SaveTrafficSketch durably persists the serving tier's
// query-frequency sketch (an opaque blob; the traffic codec owns the
// format), using the same atomic-write protocol as every artifact —
// a crash mid-save costs the previous sketch nothing.
func (s *Store) SaveTrafficSketch(data []byte) error {
	return s.atomicWrite(filepath.Join(s.root, "traffic", "sketch.bin"), func(f *os.File) error {
		if _, err := f.Write(data); err != nil {
			return fmt.Errorf("datastore: writing traffic sketch: %w", err)
		}
		return nil
	})
}

// LoadTrafficSketch reads the persisted query-frequency sketch blob.
// A store that never saved one returns (nil, nil) — callers decode
// nil as a cold sketch.
func (s *Store) LoadTrafficSketch() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.root, "traffic", "sketch.bin"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("datastore: traffic sketch: %w", err)
	}
	return data, nil
}

// DeleteArtifacts removes every persisted artifact (both kinds)
// derived from the graph with the given structural fingerprint.
func (s *Store) DeleteArtifacts(graphFP string) error {
	if err := validName(graphFP); err != nil {
		return err
	}
	for kind := range artifactKinds {
		if err := os.RemoveAll(filepath.Join(s.root, kind, graphFP)); err != nil {
			return fmt.Errorf("datastore: %w", err)
		}
	}
	return nil
}

// ReadLog returns the task's full log, or an empty string when none
// exists.
func (s *Store) ReadLog(taskID string) (string, error) {
	if err := validName(taskID); err != nil {
		return "", err
	}
	data, err := os.ReadFile(filepath.Join(s.root, "logs", taskID+".log"))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("datastore: %w", err)
	}
	return string(data), nil
}
