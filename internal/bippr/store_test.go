package bippr

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// fakeDisk is an in-memory DiskTier for unit tests.
type fakeDisk struct {
	mu    sync.Mutex
	blobs map[string][]byte

	loads, saves atomic.Int64
	failSaves    bool
}

func newFakeDisk() *fakeDisk {
	return &fakeDisk{blobs: make(map[string][]byte)}
}

func (d *fakeDisk) LoadIndex(graphFP, key string) ([]byte, error) {
	d.loads.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blobs[graphFP+"/"+key]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), b...), nil
}

func (d *fakeDisk) SaveIndex(graphFP, key string, data []byte) error {
	d.saves.Add(1)
	if d.failSaves {
		return fmt.Errorf("fake disk full")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blobs[graphFP+"/"+key] = append([]byte(nil), data...)
	return nil
}

// TestIndexStoreSingleflight is the satellite concurrency test: N
// goroutines racing the same key through GetOrCompute must trigger
// exactly one compute, with every caller receiving the same index.
// Run with -race.
func TestIndexStoreSingleflight(t *testing.T) {
	g := randomGraph(t, 50, 200, 3, true)
	for _, tc := range []struct {
		name  string
		store IndexStore
	}{
		{"memory", NewMemoryStore(8)},
		{"tiered", NewTieredStore(8, newFakeDisk())},
		{"tiered-nil-disk", NewTieredStore(8, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const goroutines = 32
			var computes atomic.Int64
			var (
				wg      sync.WaitGroup
				start   = make(chan struct{})
				results [goroutines]*TargetIndex
				errs    [goroutines]error
			)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					results[i], _, errs[i] = tc.store.GetOrCompute(context.Background(), g, 7, 0.85, 1e-4,
						func() (*TargetIndex, error) {
							computes.Add(1)
							return ReversePush(context.Background(), g, 7, 0.85, 1e-4)
						})
				}(i)
			}
			close(start)
			wg.Wait()
			if n := computes.Load(); n != 1 {
				t.Fatalf("%d computes ran, want exactly 1", n)
			}
			for i := 0; i < goroutines; i++ {
				if errs[i] != nil {
					t.Fatalf("goroutine %d: %v", i, errs[i])
				}
				if results[i] != results[0] {
					t.Fatalf("goroutine %d received a different index instance", i)
				}
			}
			stats := tc.store.Stats()
			if stats.Misses != 1 {
				t.Errorf("stats.Misses = %d, want 1", stats.Misses)
			}
			if stats.MemoryHits+stats.DiskHits != goroutines-1 {
				t.Errorf("hits = %d (mem %d + disk %d), want %d",
					stats.MemoryHits+stats.DiskHits, stats.MemoryHits, stats.DiskHits, goroutines-1)
			}
		})
	}
}

// TestTieredStoreRestart is the acceptance integration test at the
// store level: build an index through one TieredStore, "restart" by
// building a fresh store over the same real datastore directory, and
// serve the same query with zero reverse-push work — the compute
// callback must never run, and the stats must show a disk hit.
func TestTieredStoreRestart(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(t, 80, 400, 9, true)

	open := func() *TieredStore {
		ds, err := datastore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewTieredStore(4, ds)
	}

	before := open()
	idx1, tier, err := before.GetOrCompute(context.Background(), g, 5, 0.85, 1e-4, func() (*TargetIndex, error) {
		return ReversePush(context.Background(), g, 5, 0.85, 1e-4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierComputed {
		t.Fatalf("first query came from tier %v, want computed", tier)
	}
	if s := before.Stats(); s.DiskWrites != 1 || s.DiskBytesWritten == 0 {
		t.Fatalf("artifact not persisted: %+v", s)
	}

	// Simulated restart: new store, new datastore handle, same files.
	after := open()
	idx2, tier, err := after.GetOrCompute(context.Background(), g, 5, 0.85, 1e-4, func() (*TargetIndex, error) {
		t.Error("reverse push ran after restart; expected a disk-tier hit")
		return ReversePush(context.Background(), g, 5, 0.85, 1e-4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierDisk {
		t.Fatalf("post-restart query came from tier %v, want disk", tier)
	}
	s := after.Stats()
	if s.DiskHits != 1 || s.Misses != 0 || s.DiskErrors != 0 {
		t.Fatalf("post-restart stats = %+v, want exactly one disk hit and no misses", s)
	}

	// The restored index answers identically.
	if idx1.Pushes != idx2.Pushes || idx1.MaxResidual != idx2.MaxResidual {
		t.Fatalf("restored index differs: pushes %d vs %d, maxres %v vs %v",
			idx1.Pushes, idx2.Pushes, idx1.MaxResidual, idx2.MaxResidual)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if idx1.Estimates.Get(graph.NodeID(v)) != idx2.Estimates.Get(graph.NodeID(v)) {
			t.Fatalf("restored estimate differs at node %d", v)
		}
	}

	// And the memory tier now fronts the disk: a second query is an
	// LRU hit, not another disk read.
	_, tier, err = after.GetOrCompute(context.Background(), g, 5, 0.85, 1e-4, func() (*TargetIndex, error) {
		t.Error("compute ran for a key the memory tier holds")
		return ReversePush(context.Background(), g, 5, 0.85, 1e-4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierMemory {
		t.Fatalf("repeat query came from tier %v, want memory", tier)
	}
}

// TestEstimatorRestartServesFromDisk exercises the same restart path
// through the public Estimator API, as a server deployment uses it.
func TestEstimatorRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(t, 80, 400, 11, true)
	p := Params{RMax: 1e-4, Walks: 300}

	open := func() *Estimator {
		ds, err := datastore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewEstimatorWithCaches(NewTieredStore(4, ds), nil)
	}

	first, err := open().Pair(context.Background(), g, 2, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first-ever query reported FromCache")
	}

	restarted := open()
	second, err := restarted.Pair(context.Background(), g, 2, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("post-restart query did not report FromCache")
	}
	if second.Pushes != 0 {
		t.Fatalf("post-restart query paid %d pushes, want 0", second.Pushes)
	}
	if second.Value != first.Value {
		t.Fatalf("post-restart estimate %v differs from original %v", second.Value, first.Value)
	}
	if s := restarted.StoreStats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("restarted estimator stats = %+v, want one disk hit, no misses", s)
	}
}

// TestTieredStoreCorruptArtifact: damaged and truncated artifacts are
// misses — recomputed, recounted, and overwritten — never errors.
func TestTieredStoreCorruptArtifact(t *testing.T) {
	g := randomGraph(t, 50, 200, 5, true)
	disk := newFakeDisk()

	seed := NewTieredStore(4, disk)
	if _, _, err := seed.GetOrCompute(context.Background(), g, 7, 0.85, 1e-4, func() (*TargetIndex, error) {
		return ReversePush(context.Background(), g, 7, 0.85, 1e-4)
	}); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"bit-flip":  func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0x10; return b },
		"garbage":   func([]byte) []byte { return []byte("not an index at all") },
	} {
		t.Run(name, func(t *testing.T) {
			disk.mu.Lock()
			var key string
			for k, b := range disk.blobs {
				key = k
				disk.blobs[k] = mutate(b)
			}
			disk.mu.Unlock()

			store := NewTieredStore(4, disk) // fresh memory tier, same disk
			computed := false
			_, tier, err := store.GetOrCompute(context.Background(), g, 7, 0.85, 1e-4, func() (*TargetIndex, error) {
				computed = true
				return ReversePush(context.Background(), g, 7, 0.85, 1e-4)
			})
			if err != nil {
				t.Fatalf("corrupt artifact surfaced as error: %v", err)
			}
			if !computed || tier != TierComputed {
				t.Fatalf("corrupt artifact served without recompute (tier %v)", tier)
			}
			s := store.Stats()
			if s.DiskErrors != 1 || s.Misses != 1 || s.DiskHits != 0 {
				t.Fatalf("stats after corruption = %+v", s)
			}
			// The recompute overwrote the bad artifact: next restart hits.
			disk.mu.Lock()
			repaired := append([]byte(nil), disk.blobs[key]...)
			disk.mu.Unlock()
			if _, err := DecodeIndex(repaired); err != nil {
				t.Fatalf("artifact not repaired after recompute: %v", err)
			}
		})
	}
}

// TestTieredStoreSaveFailureIsNonFatal: a disk write failure loses
// persistence, not the query.
func TestTieredStoreSaveFailureIsNonFatal(t *testing.T) {
	g := randomGraph(t, 50, 200, 5, true)
	disk := newFakeDisk()
	disk.failSaves = true
	store := NewTieredStore(4, disk)
	_, tier, err := store.GetOrCompute(context.Background(), g, 7, 0.85, 1e-4, func() (*TargetIndex, error) {
		return ReversePush(context.Background(), g, 7, 0.85, 1e-4)
	})
	if err != nil {
		t.Fatalf("save failure surfaced as query error: %v", err)
	}
	if tier != TierComputed {
		t.Fatalf("tier = %v, want computed", tier)
	}
	s := store.Stats()
	if s.DiskErrors != 1 || s.DiskWrites != 0 {
		t.Fatalf("stats = %+v, want one disk error and no writes", s)
	}
}

// TestTieredStoreDistinctParamsDistinctArtifacts: alpha/rmax are part
// of the artifact key, so parameter changes can never serve a stale
// index.
func TestTieredStoreDistinctParamsDistinctArtifacts(t *testing.T) {
	g := randomGraph(t, 50, 200, 5, true)
	disk := newFakeDisk()
	store := NewTieredStore(8, disk)
	compute := func(target graph.NodeID, alpha, rmax float64) {
		t.Helper()
		if _, _, err := store.GetOrCompute(context.Background(), g, target, alpha, rmax, func() (*TargetIndex, error) {
			return ReversePush(context.Background(), g, target, alpha, rmax)
		}); err != nil {
			t.Fatal(err)
		}
	}
	compute(7, 0.85, 1e-4)
	compute(7, 0.85, 1e-5)
	compute(7, 0.5, 1e-4)
	compute(8, 0.85, 1e-4)
	disk.mu.Lock()
	n := len(disk.blobs)
	disk.mu.Unlock()
	if n != 4 {
		t.Fatalf("4 distinct queries produced %d artifacts, want 4", n)
	}
}
