package artifact

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// testDisk is an in-memory DiskTier.
type testDisk struct {
	mu    sync.Mutex
	blobs map[string][]byte

	failLoads, failSaves bool
}

func newTestDisk() *testDisk { return &testDisk{blobs: make(map[string][]byte)} }

func (d *testDisk) Load(dir, key string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failLoads {
		return nil, fmt.Errorf("disk sick")
	}
	b, ok := d.blobs[dir+"/"+key]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), b...), nil
}

func (d *testDisk) Save(dir, key string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failSaves {
		return fmt.Errorf("disk full")
	}
	d.blobs[dir+"/"+key] = append([]byte(nil), data...)
	return nil
}

// intCodec round-trips int values as decimal strings; a decode of
// anything non-numeric fails, standing in for a corrupt artifact.
func intConfig(capacity int, disk DiskTier) Config[string, int] {
	return Config[string, int]{
		Capacity: capacity,
		Disk:     disk,
		DiskKey:  func(k string) (string, string) { return "fp", k },
		Encode:   func(k string, v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
		Decode: func(k string, data []byte) (int, error) {
			return strconv.Atoi(string(data))
		},
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := New(intConfig(8, newTestDisk()))
	const goroutines = 32
	var computes atomic.Int64
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results [goroutines]int
		tiers   [goroutines]Tier
		errs    [goroutines]error
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], tiers[i], errs[i] = c.GetOrCompute(context.Background(), "k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes ran, want exactly 1", n)
	}
	payers := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != 42 {
			t.Fatalf("goroutine %d got %d", i, results[i])
		}
		if tiers[i] == TierComputed {
			payers++
		}
	}
	if payers != 1 {
		t.Fatalf("%d callers report TierComputed, want 1", payers)
	}
	s := c.Stats()
	if s.Misses != 1 || s.MemoryHits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d memory hits", s, goroutines-1)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(intConfig(2, nil))
	get := func(k string) Tier {
		t.Helper()
		_, tier, err := c.GetOrCompute(context.Background(), k, func() (int, error) { return len(k), nil })
		if err != nil {
			t.Fatal(err)
		}
		return tier
	}
	get("a")
	get("b")
	if get("a") != TierMemory {
		t.Error("a evicted while under capacity")
	}
	get("c") // evicts b (LRU), not the freshly-touched a
	if get("a") != TierMemory {
		t.Error("recently used a was evicted")
	}
	if get("b") != TierComputed {
		t.Error("LRU entry b survived eviction")
	}
	if s := c.Stats(); s.MemoryEntries != 2 {
		t.Errorf("entries = %d, want 2", s.MemoryEntries)
	}
}

func TestCacheWeightBudget(t *testing.T) {
	cfg := intConfig(64, nil)
	cfg.Weight = func(v int) int64 { return int64(v) }
	cfg.WeightBudget = 10
	c := New(cfg)
	put := func(k string, v int) {
		t.Helper()
		if _, _, err := c.GetOrCompute(context.Background(), k, func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 4)
	put("b", 4)
	put("c", 4) // 12 > 10: evicts a
	s := c.Stats()
	if s.Weight > 10 || s.MemoryEntries != 2 {
		t.Fatalf("after budget eviction: %+v", s)
	}
	// An entry alone over budget still survives: it was just paid for.
	put("huge", 100)
	s = c.Stats()
	if s.MemoryEntries != 1 || s.Weight != 100 {
		t.Fatalf("oversized latest entry not kept alone: %+v", s)
	}
	if !c.Peek("huge") {
		t.Error("latest oversized entry evicted")
	}
}

// TestCacheDropFunc: a dropped entry is gone from the map, the LRU
// order and the weight total alike; the survivors keep their place and
// the budget has the room back.
func TestCacheDropFunc(t *testing.T) {
	cfg := intConfig(8, nil)
	cfg.Weight = func(v int) int64 { return int64(v) }
	cfg.WeightBudget = 20
	c := New(cfg)
	put := func(k string, v int) Tier {
		t.Helper()
		_, tier, err := c.GetOrCompute(context.Background(), k, func() (int, error) { return v, nil })
		if err != nil {
			t.Fatal(err)
		}
		return tier
	}
	put("x1", 3)
	put("y1", 5)
	put("x2", 4)
	put("y2", 6) // 18 of 20

	if n := c.DropFunc(func(k string) bool { return k[0] == 'x' }); n != 2 {
		t.Fatalf("dropped %d entries, want 2", n)
	}
	if s := c.Stats(); s.MemoryEntries != 2 || s.Weight != 11 {
		t.Fatalf("after drop: %+v, want 2 entries of weight 11", s)
	}
	if c.Peek("x1") || c.Peek("x2") || !c.Peek("y1") || !c.Peek("y2") {
		t.Fatal("drop removed the wrong entries")
	}
	if n := c.DropFunc(func(string) bool { return false }); n != 0 {
		t.Fatalf("no-match drop removed %d", n)
	}
	// The freed weight is usable: 9 more fits without evicting y1/y2,
	// and a dropped key is an ordinary miss again.
	if put("x1", 9) != TierComputed {
		t.Error("dropped key still served from memory")
	}
	if s := c.Stats(); s.MemoryEntries != 3 || s.Weight != 20 {
		t.Fatalf("after re-insert: %+v, want 3 entries of weight 20", s)
	}
	// One more unit is over budget and evicts the least recent (y1).
	put("z", 1)
	if c.Peek("y1") || !c.Peek("y2") {
		t.Error("LRU order broken by the drop")
	}
	if s := c.Stats(); s.Weight != 16 {
		t.Fatalf("weight = %d, want 16", s.Weight)
	}
}

func TestCacheDiskRoundTripAndCorruption(t *testing.T) {
	disk := newTestDisk()
	first := New(intConfig(4, disk))
	if _, tier, err := first.GetOrCompute(context.Background(), "k", func() (int, error) { return 7, nil }); err != nil || tier != TierComputed {
		t.Fatalf("first get: tier %v err %v", tier, err)
	}
	if s := first.Stats(); s.DiskWrites != 1 || s.DiskBytesWritten == 0 {
		t.Fatalf("artifact not persisted: %+v", s)
	}

	// "Restart": fresh memory tier over the same disk.
	second := New(intConfig(4, disk))
	v, tier, err := second.GetOrCompute(context.Background(), "k", func() (int, error) {
		t.Error("compute ran despite a persisted artifact")
		return 0, nil
	})
	if err != nil || v != 7 || tier != TierDisk {
		t.Fatalf("restart get = (%d, %v, %v), want (7, disk, nil)", v, tier, err)
	}
	if s := second.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("restart stats: %+v", s)
	}

	// Corrupt the artifact: the next fresh cache recomputes and
	// overwrites, never errors.
	disk.mu.Lock()
	disk.blobs["fp/k"] = []byte("not a number")
	disk.mu.Unlock()
	third := New(intConfig(4, disk))
	v, tier, err = third.GetOrCompute(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || tier != TierComputed {
		t.Fatalf("corrupt get = (%d, %v, %v), want recompute", v, tier, err)
	}
	if s := third.Stats(); s.DiskErrors != 1 || s.Misses != 1 {
		t.Fatalf("corrupt stats: %+v", s)
	}
	disk.mu.Lock()
	repaired := string(disk.blobs["fp/k"])
	disk.mu.Unlock()
	if repaired != "7" {
		t.Fatalf("artifact not overwritten after corruption: %q", repaired)
	}
}

func TestCacheDiskFailuresAreNonFatal(t *testing.T) {
	disk := newTestDisk()
	disk.failSaves = true
	c := New(intConfig(4, disk))
	if v, tier, err := c.GetOrCompute(context.Background(), "k", func() (int, error) { return 3, nil }); err != nil || v != 3 || tier != TierComputed {
		t.Fatalf("save failure surfaced: (%d, %v, %v)", v, tier, err)
	}
	if s := c.Stats(); s.DiskErrors != 1 || s.DiskWrites != 0 {
		t.Fatalf("stats = %+v, want one disk error, no writes", s)
	}

	// A sick disk tier (load errors that are not fs.ErrNotExist) is a
	// counted miss, not a query failure.
	sick := newTestDisk()
	sick.failLoads = true
	c2 := New(intConfig(4, sick))
	if _, _, err := c2.GetOrCompute(context.Background(), "k", func() (int, error) { return 3, nil }); err != nil {
		t.Fatalf("sick disk surfaced: %v", err)
	}
	if s := c2.Stats(); s.DiskErrors < 1 {
		t.Fatalf("sick disk not counted: %+v", s)
	}
}

func TestCachePeerFailureRetries(t *testing.T) {
	c := New(intConfig(4, nil))
	var calls atomic.Int64
	gate := make(chan struct{})
	// First caller fails slowly; a second caller waiting on the same
	// key must retry with its own compute instead of inheriting the
	// error.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute(context.Background(), "k", func() (int, error) {
			close(gate)
			calls.Add(1)
			return 0, fmt.Errorf("boom")
		})
		if err == nil {
			t.Error("failing compute returned nil error to its payer")
		}
	}()
	<-gate
	v, _, err := c.GetOrCompute(context.Background(), "k", func() (int, error) {
		calls.Add(1)
		return 9, nil
	})
	wg.Wait()
	if err != nil || v != 9 {
		t.Fatalf("retry after peer failure = (%d, %v)", v, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d computes, want 2 (failed peer + retry)", n)
	}
	// The failure was never cached.
	if !c.Peek("k") {
		t.Error("successful retry not cached")
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := New(intConfig(4, nil))
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrCompute(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrCompute(ctx, "k", func() (int, error) { return 1, nil }); err == nil {
		t.Error("cancelled waiter returned nil error")
	}
	close(release)
}
