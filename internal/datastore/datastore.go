// Package datastore implements the platform's persistent storage: the
// component of the demo architecture responsible for datasets, task
// results and logs (Figure 1 of the paper).
//
// The store is a directory tree:
//
//	root/
//	  datasets/<name>.snap        uploaded graphs: one checksummed binary
//	                              snapshot each (CSR, labels, fingerprint)
//	  results/<task-id>.json      completed task results
//	  logs/<task-id>.log          per-task execution logs
//	  indexes/<graph-fp>/<key>.idx    persisted reverse-push target indexes
//	  endpoints/<graph-fp>/<key>.ep   persisted walk-endpoint recordings
//
// A dataset is one file, written by one atomic write, so a crash
// leaves either the old snapshot or the new one, never a mix. Its
// header carries the graph's structural fingerprint (see
// snapshot.go). A data dir from before snapshots — <name>.asd plus
// optional .labels and .fp sidecars — is migrated once, by Open.
//
// Derived artifacts (indexes, endpoints) are opaque blobs to this
// package (the bippr codecs own their formats); they are grouped per
// structural graph fingerprint so a re-uploaded dataset naturally
// orphans its predecessor's artifacts instead of serving them.
// Orphans are reclaimed by two lifecycle mechanisms: DeleteDataset
// removes a deleted dataset's artifact trees once no other stored
// dataset shares the fingerprint (refcounted through the snapshot
// headers), and SweepArtifacts enforces a size cap by reaping
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
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

	migrationErr error // legacy dataset sets Open left in place
}

// artifactKinds maps each derived-artifact kind to its file
// extension. Both kinds share the save/load/usage/sweep machinery;
// the extension keeps a misplaced blob from ever being decoded as the
// wrong kind.
var artifactKinds = map[string]string{
	"indexes":   ".idx",
	"endpoints": ".ep",
}

// Open creates (if needed) and opens a store rooted at dir, migrating
// any datasets stored before snapshots (see migrateLegacy). A legacy
// set that cannot be migrated does not fail Open: it stays where it
// is, unlisted, and MigrationErr reports it.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"datasets", "results", "logs", "indexes", "endpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("datastore: %w", err)
		}
	}
	r := obs.NewRegistry()
	s := &Store{
		root:              dir,
		reg:               r,
		fsyncs:            r.Counter("cyclerank_datastore_fsyncs_total", "File and directory fsyncs performed by durable writes."),
		artifactReadSecs:  r.Histogram("cyclerank_datastore_artifact_read_seconds", "Persisted artifact read latency (successful loads).", nil),
		artifactWriteSecs: r.Histogram("cyclerank_datastore_artifact_write_seconds", "Persisted artifact durable-write latency (successful saves).", nil),
	}
	s.migrationErr = s.migrateLegacy()
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// MetricsRegistry returns the store's I/O metrics registry, for
// merging into a scrape endpoint.
func (s *Store) MetricsRegistry() *obs.Registry { return s.reg }

// ErrInvalidName is wrapped by every error ValidName returns: the name
// can never be stored, whatever the store's state.
var ErrInvalidName = errors.New("datastore: invalid name")

// ValidName guards against path traversal in user-supplied names. Every
// method that takes a dataset name, task id or artifact key checks it;
// callers may check first to refuse a name before doing any work for
// it.
func ValidName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty", ErrInvalidName)
	}
	if strings.ContainsAny(name, "/\\") || name == "." || strings.Contains(name, "..") {
		return fmt.Errorf("%w %q", ErrInvalidName, name)
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

// SaveDataset stores g under the given name as one snapshot,
// overwriting any previous dataset with that name. The snapshot holds
// the graph, its labels and its structural fingerprint, which
// DeleteDataset later uses to refcount the derived-artifact trees the
// dataset's graph hashed to.
//
// A name ValidName refuses fails with an error wrapping ErrInvalidName
// before anything is written; any other error is the store's, and
// leaves the previous snapshot in place. When SaveDataset returns nil,
// the snapshot is durable.
func (s *Store) SaveDataset(name string, g *graph.Graph) error {
	if err := ValidName(name); err != nil {
		return err
	}
	data := encodeSnapshot(g)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSnapshot(name, data)
}

// writeSnapshot durably writes an encoded snapshot under name.
func (s *Store) writeSnapshot(name string, data []byte) error {
	return s.atomicWrite(s.snapshotPath(name), func(f *os.File) error {
		if _, err := f.Write(data); err != nil {
			return fmt.Errorf("datastore: writing dataset %q: %w", name, err)
		}
		return nil
	})
}

// snapshotPath is where the dataset name's snapshot lives.
func (s *Store) snapshotPath(name string) string {
	return filepath.Join(s.root, "datasets", name+snapshotExt)
}

// datasetFingerprint reads the fingerprint from the header of a
// dataset's snapshot, and nothing past it. ok is false when the
// snapshot is missing or its header unreadable.
func (s *Store) datasetFingerprint(name string) (fp string, ok bool) {
	f, err := os.Open(s.snapshotPath(name))
	if err != nil {
		return "", false
	}
	defer f.Close()
	var header [snapshotHeaderLen]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return "", false
	}
	fp, err = snapshotFingerprint(header[:])
	return fp, err == nil
}

// fingerprintShared reports whether any stored dataset other than
// exclude has the given fingerprint, judged by the snapshot headers.
func (s *Store) fingerprintShared(fp, exclude string) bool {
	entries, err := os.ReadDir(filepath.Join(s.root, "datasets"))
	if err != nil {
		// Unreadable directory: assume shared — keeping an orphaned
		// artifact tree costs disk the sweep reclaims; deleting a
		// shared one costs another dataset its warm cache.
		return true
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), snapshotExt)
		if !ok || name == exclude {
			continue
		}
		if other, ok := s.datasetFingerprint(name); ok && other == fp {
			return true
		}
	}
	return false
}

// LoadDataset retrieves a stored dataset by name. A snapshot that
// fails validation is an error wrapping ErrSnapshotCorrupt (or
// ErrSnapshotVersion), never a different graph.
func (s *Store) LoadDataset(name string) (*graph.Graph, error) {
	if err := ValidName(name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.snapshotPath(name))
	if err != nil {
		return nil, fmt.Errorf("datastore: dataset %q: %w", name, err)
	}
	g, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("datastore: dataset %q: %w", name, err)
	}
	return g, nil
}

// DeleteDataset removes a stored dataset. Deleting a missing dataset
// is not an error.
//
// The dataset's derived artifacts (indexes, endpoint recordings under
// its graph's fingerprint) are deleted too — unless another stored
// dataset's graph hashed to the same fingerprint, in which case the
// artifacts are still serving that dataset and must survive. The
// refcount reads only the fingerprints in the snapshot headers, so it
// never loads a graph.
func (s *Store) DeleteDataset(name string) error {
	if err := ValidName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fp, haveFP := s.datasetFingerprint(name)
	if err := os.Remove(s.snapshotPath(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("datastore: %w", err)
	}
	if haveFP && !s.fingerprintShared(fp, name) {
		return s.DeleteArtifacts(fp)
	}
	return nil
}

// ListDatasets returns the names of all stored datasets, sorted. Only
// a snapshot whose header and checksum check out is listed: the temp
// file of a write a crash cut short, or a damaged snapshot, is not a
// dataset.
func (s *Store) ListDatasets() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "datasets"))
	if err != nil {
		return nil, fmt.Errorf("datastore: %w", err)
	}
	var names []string
	for _, e := range entries {
		n, ok := strings.CutSuffix(e.Name(), snapshotExt)
		if !ok || ValidName(n) != nil {
			continue
		}
		if data, err := os.ReadFile(s.snapshotPath(n)); err == nil {
			if _, _, err := checkSnapshotFrame(data); err == nil {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// MigrationErr reports the legacy dataset sets Open could not migrate
// and left in place, joined; nil when there were none.
func (s *Store) MigrationErr() error { return s.migrationErr }

// migrateLegacy converts every dataset stored in the layout that
// preceded snapshots — <name>.asd, an optional <name>.labels sidecar
// of one label per line, and an optional <name>.fp fingerprint
// sidecar — into <name>.snap, then removes the old files. The
// fingerprint is recomputed from the graph, so a stale .fp is
// dropped rather than carried over. A name that already has a
// snapshot only loses its leftovers: a migration cut short after its
// write, or a legacy set an upload has since replaced. A set that
// does not parse is left in place, and its error joined into the
// one returned.
func (s *Store) migrateLegacy() error {
	dir := filepath.Join(s.root, "datasets")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	var errs []error
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".asd")
		if !ok || ValidName(name) != nil {
			continue
		}
		if err := s.migrateDataset(filepath.Join(dir, name), name); err != nil {
			errs = append(errs, fmt.Errorf("datastore: legacy dataset %q left in place: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// migrateDataset migrates the legacy set at base (the path without
// extension); see migrateLegacy.
func (s *Store) migrateDataset(base, name string) error {
	if _, err := os.Stat(base + snapshotExt); errors.Is(err, fs.ErrNotExist) {
		g, err := readLegacyDataset(base)
		if err != nil {
			return err
		}
		if err := s.writeSnapshot(name, encodeSnapshot(g)); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	// The .asd goes last: while it remains, the next Open finishes the
	// cleanup.
	for _, ext := range []string{".labels", ".fp", ".asd"} {
		if err := os.Remove(base + ext); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// readLegacyDataset parses a legacy <base>.asd and, when present, its
// <base>.labels sidecar.
func readLegacyDataset(base string) (*graph.Graph, error) {
	gf, err := os.Open(base + ".asd")
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	g, err := formats.ReadASD(gf)
	if err != nil {
		return nil, err
	}
	lf, err := os.Open(base + ".labels")
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	sc := bufio.NewScanner(lf)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var labels []string
	for sc.Scan() {
		labels = append(labels, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("labels: %w", err)
	}
	return g.WithLabels(labels)
}

// SaveResult stores an arbitrary JSON-encodable result document under
// a task id. It takes no store-wide lock: each write goes through its
// own temp file and atomic rename (readers always see a complete
// document), and only one executor owns a task id at a time — so one
// task's fsync latency never stalls another's persistence.
func (s *Store) SaveResult(taskID string, doc any) error {
	if err := ValidName(taskID); err != nil {
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
	if err := ValidName(taskID); err != nil {
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
	if ValidName(taskID) != nil {
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
	if err := ValidName(taskID); err != nil {
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
	if err := ValidName(graphFP); err != nil {
		return err
	}
	if err := ValidName(key); err != nil {
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
// access clock SweepArtifacts orders evictions by —
// best-effort.
func (s *Store) loadArtifact(kind, graphFP, key string) ([]byte, error) {
	ext, ok := artifactKinds[kind]
	if !ok {
		return nil, fmt.Errorf("datastore: unknown artifact kind %q", kind)
	}
	if err := ValidName(graphFP); err != nil {
		return nil, err
	}
	if err := ValidName(key); err != nil {
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

// SweepArtifacts reaps the least recently accessed artifacts, of
// either kind, until their combined size is at most capBytes — LRU by
// the mtime access clock loads refresh, with the path as a
// deterministic tiebreak. A cap of zero or less only reports usage.
//
// Reaping never races a reader into corruption: loads open the file
// before reading, and an unlinked-but-open file remains fully
// readable (POSIX), so a concurrent load either sees the complete
// artifact or a clean not-exist miss. Emptied fingerprint directories
// are removed best-effort.
func (s *Store) SweepArtifacts(capBytes int64) (SweepStats, error) {
	var entries []artifactFile
	for kind := range artifactKinds {
		arts, err := s.walkArtifacts(kind)
		if err != nil {
			return SweepStats{}, err
		}
		entries = append(entries, arts...)
	}
	stats := SweepStats{Files: len(entries)}
	for _, e := range entries {
		stats.Bytes += e.bytes
	}
	if capBytes <= 0 {
		return stats, nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].atime.Equal(entries[j].atime) {
			return entries[i].atime.Before(entries[j].atime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if stats.Bytes <= capBytes {
			break
		}
		switch err := os.Remove(e.path); {
		case err == nil:
			stats.Reaped++
			stats.ReapedBytes += e.bytes
			// Drop the fingerprint directory once its last artifact is
			// gone; Remove refuses non-empty directories, so this is safe
			// against concurrent writers.
			_ = os.Remove(filepath.Dir(e.path))
		case !errors.Is(err, fs.ErrNotExist):
			continue
		}
		// Reaped now or already gone (a concurrent delete): either way
		// the space is free, so the accounting cannot loop.
		stats.Files--
		stats.Bytes -= e.bytes
	}
	return stats, nil
}

// DeleteArtifacts removes every persisted artifact (both kinds)
// derived from the graph with the given structural fingerprint.
func (s *Store) DeleteArtifacts(graphFP string) error {
	if err := ValidName(graphFP); err != nil {
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
	if err := ValidName(taskID); err != nil {
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
