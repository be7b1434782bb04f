package datastore

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

func TestEndpointArtifactRoundTrip(t *testing.T) {
	s := newStore(t)
	blob := []byte("opaque endpoint recording bytes")
	if err := s.SaveEndpoints("abcd1234", "s3-a0-s0-m100-w256", blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadEndpoints("abcd1234", "s3-a0-s0-m100-w256")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("loaded %q, want %q", got, blob)
	}
	if _, err := s.LoadEndpoints("abcd1234", "nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing endpoint artifact error %v does not wrap fs.ErrNotExist", err)
	}
	files, size, err := s.EndpointUsage()
	if err != nil {
		t.Fatal(err)
	}
	if files != 1 || size != int64(len(blob)) {
		t.Fatalf("EndpointUsage = (%d, %d), want (1, %d)", files, size, len(blob))
	}
	// Endpoint artifacts do not leak into the index accounting.
	if files, _, _ := s.IndexUsage(); files != 0 {
		t.Fatalf("IndexUsage sees %d endpoint artifacts", files)
	}
}

// setAtime pins an artifact's access clock (its mtime) so sweep-order
// tests are deterministic.
func setAtime(t *testing.T, path string, at time.Time) {
	t.Helper()
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}

// TestSweepArtifactsLRUOrder is the sweep-determinism test: the size
// cap is honored exactly, artifacts fall least-recently-accessed
// first across BOTH kinds, and recently loaded artifacts survive
// because loads refresh the access clock.
func TestSweepArtifactsLRUOrder(t *testing.T) {
	s := newStore(t)
	base := time.Now().Add(-time.Hour)
	// Four 100-byte artifacts, alternating kinds, with strictly
	// increasing access times: idx-old < ep-old < idx-new < ep-new.
	saves := []struct {
		kind, fp, key string
		at            time.Time
	}{
		{"indexes", "fp1", "idx-old", base},
		{"endpoints", "fp1", "ep-old", base.Add(time.Minute)},
		{"indexes", "fp2", "idx-new", base.Add(2 * time.Minute)},
		{"endpoints", "fp2", "ep-new", base.Add(3 * time.Minute)},
	}
	paths := make(map[string]string)
	for _, sv := range saves {
		if err := s.saveArtifact(sv.kind, sv.fp, sv.key, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(s.Root(), sv.kind, sv.fp, sv.key+artifactKinds[sv.kind])
		setAtime(t, p, sv.at)
		paths[sv.key] = p
	}

	// Under the cap: nothing reaped, usage reported.
	st, err := s.SweepArtifactsPolicy(SweepPolicy{TotalBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reaped != 0 || st.Files != 4 || st.Bytes != 400 {
		t.Fatalf("under-cap sweep = %+v", st)
	}

	// A load refreshes idx-old's access clock, so the NEXT oldest
	// (ep-old) must fall instead.
	if _, err := s.LoadIndex("fp1", "idx-old"); err != nil {
		t.Fatal(err)
	}
	st, err = s.SweepArtifactsPolicy(SweepPolicy{TotalBytes: 350})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reaped != 1 || st.ReapedBytes != 100 || st.Files != 3 || st.Bytes != 300 {
		t.Fatalf("sweep to 350 = %+v", st)
	}
	if _, err := os.Stat(paths["ep-old"]); !errors.Is(err, fs.ErrNotExist) {
		t.Error("LRU artifact ep-old survived the sweep")
	}
	if _, err := os.Stat(paths["idx-old"]); err != nil {
		t.Error("freshly loaded idx-old was reaped despite its refreshed access clock")
	}

	// Tighten the cap: the two next-oldest (idx-new, ep-new) fall and
	// the just-loaded idx-old — now the most recently accessed —
	// survives; the cap is honored exactly (100 <= 150).
	st, err = s.SweepArtifactsPolicy(SweepPolicy{TotalBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 || st.Bytes != 100 || st.Reaped != 2 {
		t.Fatalf("sweep to 150 = %+v", st)
	}
	if _, err := os.Stat(paths["idx-old"]); err != nil {
		t.Error("most recently accessed artifact did not survive")
	}
	// Emptied fingerprint directories are removed.
	if _, err := os.Stat(filepath.Join(s.Root(), "indexes", "fp2")); !errors.Is(err, fs.ErrNotExist) {
		t.Error("emptied fingerprint directory not removed")
	}
	// maxBytes <= 0 is "no cap": report only.
	st, err = s.SweepArtifactsPolicy(SweepPolicy{TotalBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reaped != 0 || st.Files != 1 {
		t.Fatalf("no-cap sweep = %+v", st)
	}
}

// TestSweepNeverTearsAReader races loads against sweeps: a concurrent
// reader must observe either the complete artifact or a clean miss,
// never partial data — the POSIX unlink-during-read guarantee the GC
// relies on. Run with -race.
func TestSweepNeverTearsAReader(t *testing.T) {
	s := newStore(t)
	blob := bytes.Repeat([]byte("x"), 4096)
	if err := s.SaveIndex("fp", "hot", blob); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.SweepArtifactsPolicy(SweepPolicy{TotalBytes: 1}); err != nil { // cap below the blob: always reap
				t.Error(err)
				return
			}
			// Re-create so readers keep having something to race.
			if err := s.SaveIndex("fp", "hot", blob); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		data, err := s.LoadIndex("fp", "hot")
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("read during sweep: %v", err)
			}
			continue
		}
		if !bytes.Equal(data, blob) {
			t.Fatalf("read %d bytes of torn artifact", len(data))
		}
	}
	close(stop)
	wg.Wait()
}

// TestDeleteDatasetReclaimsArtifacts: deleting the only dataset with
// a fingerprint removes that fingerprint's artifact trees (both
// kinds).
func TestDeleteDatasetReclaimsArtifacts(t *testing.T) {
	s := newStore(t)
	g := labeledTriangle(t)
	fp := graph.Fingerprint(g)
	if err := s.SaveDataset("tri", g); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex(fp, "k1", []byte("idx")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveEndpoints(fp, "k1", []byte("ep")); err != nil {
		t.Fatal(err)
	}
	// Artifacts of an unrelated fingerprint must survive.
	if err := s.SaveIndex("otherfp", "k1", []byte("idx")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDataset("tri"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "indexes", fp)); !errors.Is(err, fs.ErrNotExist) {
		t.Error("deleted dataset's index tree survived")
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "endpoints", fp)); !errors.Is(err, fs.ErrNotExist) {
		t.Error("deleted dataset's endpoint tree survived")
	}
	if _, err := s.LoadIndex("otherfp", "k1"); err != nil {
		t.Error("unrelated fingerprint's artifacts were deleted")
	}
	// The fingerprint sidecar is gone with the dataset.
	if _, err := os.Stat(filepath.Join(s.Root(), "datasets", "tri.fp")); !errors.Is(err, fs.ErrNotExist) {
		t.Error("fingerprint sidecar survived the delete")
	}
}

// TestDeleteDatasetSharedFingerprint is the orphan-accounting
// regression test: deleting a dataset whose graph fingerprint is
// shared by another stored dataset must NOT delete the shared
// artifacts — only the last holder's deletion reclaims them.
func TestDeleteDatasetSharedFingerprint(t *testing.T) {
	s := newStore(t)
	g := labeledTriangle(t)
	fp := graph.Fingerprint(g)
	if err := s.SaveDataset("tri-a", g); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveDataset("tri-b", g); err != nil { // same structure, same fingerprint
		t.Fatal(err)
	}
	if err := s.SaveIndex(fp, "k1", []byte("idx")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDataset("tri-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadIndex(fp, "k1"); err != nil {
		t.Fatalf("shared artifact deleted while tri-b still uses it: %v", err)
	}
	if err := s.DeleteDataset("tri-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadIndex(fp, "k1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("artifact survived the last holder's deletion: %v", err)
	}
}

// TestDeleteDatasetLegacyNoSidecar: a dataset saved without a .fp
// sidecar (pre-sidecar stores) still reclaims its artifacts — the
// fingerprint is recovered by loading the graph.
func TestDeleteDatasetLegacyNoSidecar(t *testing.T) {
	s := newStore(t)
	g := labeledTriangle(t)
	fp := graph.Fingerprint(g)
	if err := s.SaveDataset("tri", g); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(s.Root(), "datasets", "tri.fp")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex(fp, "k1", []byte("idx")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDataset("tri"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadIndex(fp, "k1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("legacy dataset's artifacts not reclaimed: %v", err)
	}
}
