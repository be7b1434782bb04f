package bippr

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// TestEndpointReuseMatchesFreshWalks is the equivalence harness for
// the walk-endpoint cache: for the same (seed, source, walks), an
// estimate re-weighted from recorded endpoints must be bit-identical
// (==, not approximately equal) to a fresh walk pass — for any weight
// vector, i.e. any target index, and any recording pool size.
func TestEndpointReuseMatchesFreshWalks(t *testing.T) {
	allowWorkers(t, 8)
	rng := rand.New(rand.NewSource(41))
	walkCounts := []int{1, 127, 128, 129, 1000, 4096}
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(100)
		g := randomGraph(t, n, n*4, rng.Int63(), trial%2 == 0)
		w := NewWalkEstimator(g, 0.85, rng.Int63(), 0)
		source := graph.NodeID(rng.Intn(n))
		walks := walkCounts[trial%len(walkCounts)]

		// Three unrelated weight vectors stand in for three different
		// targets' residuals.
		var weights []*Vector
		for k := 0; k < 3; k++ {
			values := make([]float64, n)
			for i := range values {
				values[i] = rng.Float64() * 1e-3
			}
			weights = append(weights, NewDenseVector(values))
		}

		for _, workers := range []int{1, 4} {
			set, err := w.Endpoints(context.Background(), source, walks, workers)
			if err != nil {
				t.Fatal(err)
			}
			for k, wv := range weights {
				fresh, err := w.EstimateSum(context.Background(), source, walks, wv, 1)
				if err != nil {
					t.Fatal(err)
				}
				if reused := set.EstimateSum(wv); reused != fresh {
					t.Errorf("trial %d (n=%d walks=%d recorded-by=%d weight %d): reused %v != fresh %v",
						trial, n, walks, workers, k, reused, fresh)
				}
			}
		}

		// Store-reopen leg: the equivalence must survive persistence.
		// Record through a tiered cache over a real datastore, ask again
		// so the recording is persisted, then
		// "restart" (fresh cache, fresh datastore handle, same files)
		// and re-weight the DESERIALIZED recording — still bit-identical
		// to fresh walks, with the walk pass never re-run.
		dir := t.TempDir()
		p := Params{Alpha: 0.85, Seed: w.seed, MaxSteps: w.maxSteps, Walks: walks}
		open := func() *EndpointCache {
			ds, err := datastore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			return NewTieredEndpointCache(4, ds)
		}
		recorder := open()
		for touch := 0; touch < 2; touch++ {
			if _, _, err := recorder.GetOrRecord(context.Background(), g, source, p, func() (*EndpointSet, error) {
				return w.Endpoints(context.Background(), source, walks, 1)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if s := recorder.Stats(); s.Misses != 1 || s.DiskWrites != 1 {
			t.Fatalf("trial %d: recorder stats = %+v, want one recorded and persisted pass", trial, s)
		}
		reopened := open()
		restored, cached, err := reopened.GetOrRecord(context.Background(), g, source, p, func() (*EndpointSet, error) {
			t.Error("walk pass re-ran after store reopen; expected a disk-tier hit")
			return w.Endpoints(context.Background(), source, walks, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("trial %d: reopened recording not reported cached", trial)
		}
		if s := reopened.Stats(); s.DiskHits != 1 || s.Misses != 0 || s.DiskErrors != 0 {
			t.Fatalf("trial %d: reopened stats = %+v, want exactly one disk hit", trial, s)
		}
		for k, wv := range weights {
			fresh, err := w.EstimateSum(context.Background(), source, walks, wv, 1)
			if err != nil {
				t.Fatal(err)
			}
			if reused := restored.EstimateSum(wv); reused != fresh {
				t.Errorf("trial %d weight %d: deserialized recording %v != fresh %v", trial, k, reused, fresh)
			}
		}
	}
}

// TestPairReuseBitIdentical asserts the property end to end through
// the estimator: pair queries with ReuseEndpoints — both the recording
// miss and the re-weighting hit, including hits for *different
// targets* — return exactly the value the plain path computes.
func TestPairReuseBitIdentical(t *testing.T) {
	g := randomGraph(t, 150, 700, 23, true)
	source := graph.NodeID(3)
	targets := []graph.NodeID{1, 42, 99}
	base := Params{Alpha: 0.85, RMax: 1e-4, Walks: 3000, Seed: 7}

	plain := NewEstimator(0)
	reusing := NewEstimator(0)
	for round := 0; round < 2; round++ { // round 1 hits the cache
		for _, tgt := range targets {
			want, err := plain.Pair(context.Background(), g, source, tgt, base)
			if err != nil {
				t.Fatal(err)
			}
			p := base
			p.ReuseEndpoints = true
			got, err := reusing.Pair(context.Background(), g, source, tgt, p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != want.Value {
				t.Errorf("round %d π(%d,%d): reuse %v != plain %v", round, source, tgt, got.Value, want.Value)
			}
		}
	}
	stats := reusing.EndpointStats()
	// One recording for the source; every later query re-weighted it.
	if stats.Misses != 1 {
		t.Errorf("endpoint misses = %d, want 1 (one walk pass per source)", stats.Misses)
	}
	if want := int64(2*len(targets) - 1); stats.Hits != want {
		t.Errorf("endpoint hits = %d, want %d", stats.Hits, want)
	}
	if want := int64(2*len(targets)-1) * int64(base.Walks); stats.WalksAvoided != want {
		t.Errorf("walks avoided = %d, want %d", stats.WalksAvoided, want)
	}
}

// TestEndpointCacheKeying asserts every walk parameter that shapes the
// sample is part of the key: changing any of seed, walks, alpha, max
// steps or source must record a fresh pass, and a structurally
// identical graph (same fingerprint, different pointer) must share the
// recording.
func TestEndpointCacheKeying(t *testing.T) {
	g := randomGraph(t, 80, 300, 5, true)
	est := NewEstimator(0)
	base := Params{Alpha: 0.85, RMax: 1e-4, Walks: 500, Seed: 1, ReuseEndpoints: true}
	tgt := graph.NodeID(9)

	run := func(p Params, source graph.NodeID) {
		t.Helper()
		if _, err := est.Pair(context.Background(), g, source, tgt, p); err != nil {
			t.Fatal(err)
		}
	}
	run(base, 0)
	variants := []Params{base, base, base, base}
	variants[0].Seed = 2
	variants[1].Walks = 501
	variants[2].Alpha = 0.8
	variants[3].MaxSteps = 50
	for _, p := range variants {
		run(p, 0)
	}
	run(base, 1) // different source
	if stats := est.EndpointStats(); stats.Misses != 6 || stats.Hits != 0 {
		t.Errorf("stats = %+v, want 6 distinct recordings and no hits", stats)
	}

	// Same structure, new pointer — the scheduler's re-upload path for
	// an unchanged dataset: the fingerprint key shares the recording.
	g2 := randomGraph(t, 80, 300, 5, true)
	if graph.Fingerprint(g2) != graph.Fingerprint(g) {
		t.Fatal("test setup: same-seed graphs fingerprint differently")
	}
	if _, err := est.Pair(context.Background(), g2, 0, tgt, base); err != nil {
		t.Fatal(err)
	}
	if stats := est.EndpointStats(); stats.Hits != 1 {
		t.Errorf("structurally identical graph missed the recording: %+v", stats)
	}
}

// TestEndpointCacheSingleflight is the race-coverage satellite: N
// concurrent sources' worth of goroutines racing the same key must
// trigger exactly one walk pass, every caller receiving the same set.
// Run with -race.
func TestEndpointCacheSingleflight(t *testing.T) {
	g := randomGraph(t, 60, 250, 11, true)
	w := NewWalkEstimator(g, 0.85, 1, 0)
	cache := NewEndpointCache(8)
	p := Params{Alpha: 0.85, Walks: 2000, Seed: 1, MaxSteps: DefaultMaxSteps}

	const goroutines = 32
	var (
		records atomic.Int64
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results [goroutines]*EndpointSet
		errs    [goroutines]error
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = cache.GetOrRecord(context.Background(), g, 7, p,
				func() (*EndpointSet, error) {
					records.Add(1)
					return w.Endpoints(context.Background(), 7, p.Walks, 1)
				})
		}(i)
	}
	close(start)
	wg.Wait()
	if n := records.Load(); n != 1 {
		t.Fatalf("%d walk passes ran, want exactly 1", n)
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d received a different set", i)
		}
	}
	stats := cache.Stats()
	if stats.Misses != 1 || stats.Hits != goroutines-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", stats, goroutines-1)
	}
}

// TestEndpointCacheLRU asserts the bound: recordings past capacity
// evict the least recently used, and a failed recording is never
// cached.
func TestEndpointCacheLRU(t *testing.T) {
	g := randomGraph(t, 40, 160, 13, true)
	w := NewWalkEstimator(g, 0.85, 1, 0)
	cache := NewEndpointCache(2)
	p := Params{Alpha: 0.85, Walks: 256, Seed: 1, MaxSteps: DefaultMaxSteps}

	get := func(source graph.NodeID) (cached bool) {
		t.Helper()
		_, cached, err := cache.GetOrRecord(context.Background(), g, source, p,
			func() (*EndpointSet, error) { return w.Endpoints(context.Background(), source, p.Walks, 1) })
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	get(0)
	get(1)
	if !get(0) {
		t.Error("source 0 evicted while under capacity")
	}
	get(2) // evicts 1 (LRU), not the freshly-touched 0
	if stats := cache.Stats(); stats.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", stats.Entries)
	}
	if !get(0) {
		t.Error("recently used source 0 was evicted")
	}
	if get(1) {
		t.Error("LRU source 1 survived eviction")
	}

	// A failed recording must not populate the cache.
	wantErr := fmt.Errorf("boom")
	if _, _, err := cache.GetOrRecord(context.Background(), g, 30, p,
		func() (*EndpointSet, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, cached, err := cache.GetOrRecord(context.Background(), g, 30, p,
		func() (*EndpointSet, error) { return w.Endpoints(context.Background(), 30, p.Walks, 1) }); err != nil || cached {
		t.Errorf("after failed recording: cached=%v err=%v, want a fresh recording", cached, err)
	}
}

// TestEndpointCachePairsBudget asserts the byte bound: total stored
// (node, count) pairs may not exceed maxEndpointPairs — the entry
// LRU alone cannot bound memory, recordings are O(min(walks, N)) —
// while the most recent recording always survives, even when it
// alone busts the budget.
func TestEndpointCachePairsBudget(t *testing.T) {
	prev := maxEndpointPairs
	maxEndpointPairs = 40
	t.Cleanup(func() { maxEndpointPairs = prev })

	g := randomGraph(t, 60, 300, 17, true)
	w := NewWalkEstimator(g, 0.85, 1, 0)
	cache := NewEndpointCache(64) // entry capacity is NOT the binding limit here
	p := Params{Alpha: 0.85, Walks: 256, Seed: 1, MaxSteps: DefaultMaxSteps}

	for source := graph.NodeID(0); source < 8; source++ {
		if _, _, err := cache.GetOrRecord(context.Background(), g, source, p,
			func() (*EndpointSet, error) { return w.Endpoints(context.Background(), source, p.Walks, 1) }); err != nil {
			t.Fatal(err)
		}
		stats := cache.Stats()
		if stats.Entries > 1 && stats.Pairs > maxEndpointPairs {
			t.Fatalf("after source %d: %d pairs stored across %d entries, budget %d",
				source, stats.Pairs, stats.Entries, maxEndpointPairs)
		}
		// The recording just paid for must be resident.
		if _, cached, err := cache.GetOrRecord(context.Background(), g, source, p,
			func() (*EndpointSet, error) { t.Fatal("latest recording evicted"); return nil, nil }); err != nil || !cached {
			t.Fatalf("source %d: latest recording not cached (cached=%v err=%v)", source, cached, err)
		}
	}
	if stats := cache.Stats(); stats.Entries >= 8 {
		t.Errorf("pairs budget never evicted: %+v", stats)
	}
}

// TestTieredEndpointCacheCorruptArtifact: a damaged persisted
// recording is a miss — re-walked, recounted, and overwritten — never
// an error, and never a wrong estimate.
func TestTieredEndpointCacheCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(t, 60, 250, 31, true)
	w := NewWalkEstimator(g, 0.85, 1, 0)
	p := Params{Alpha: 0.85, Seed: 1, MaxSteps: DefaultMaxSteps, Walks: 500}
	record := func() (*EndpointSet, error) {
		return w.Endpoints(context.Background(), 3, p.Walks, 1)
	}
	open := func() *EndpointCache {
		ds, err := datastore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewTieredEndpointCache(4, ds)
	}
	seed := open()
	for touch := 0; touch < 2; touch++ { // the second touch persists
		if _, _, err := seed.GetOrRecord(context.Background(), g, 3, p, record); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte in the persisted artifact.
	var artifactPath string
	err := filepath.WalkDir(filepath.Join(dir, "endpoints"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			artifactPath = path
		}
		return err
	})
	if err != nil || artifactPath == "" {
		t.Fatalf("no persisted endpoint artifact found (%v)", err)
	}
	data, err := os.ReadFile(artifactPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(artifactPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := open()
	recorded := false
	set, cached, err := reopened.GetOrRecord(context.Background(), g, 3, p, func() (*EndpointSet, error) {
		recorded = true
		return record()
	})
	if err != nil {
		t.Fatalf("corrupt artifact surfaced as error: %v", err)
	}
	if !recorded || cached {
		t.Fatalf("corrupt artifact served without re-walking (cached=%v)", cached)
	}
	if s := reopened.Stats(); s.DiskErrors != 1 || s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("stats after corruption = %+v", s)
	}
	if set.Walks != p.Walks {
		t.Fatalf("re-recorded set malformed: %+v", set)
	}
	// The re-record overwrote the bad artifact: the next reopen hits.
	final := open()
	if _, cached, err := final.GetOrRecord(context.Background(), g, 3, p, func() (*EndpointSet, error) {
		t.Error("walk pass ran despite a repaired artifact")
		return record()
	}); err != nil || !cached {
		t.Fatalf("repaired artifact not served (cached=%v err=%v)", cached, err)
	}
}

// TestEndpointsCancellation exercises the recorder's context paths,
// serial and sharded.
func TestEndpointsCancellation(t *testing.T) {
	allowWorkers(t, 4)
	g := randomGraph(t, 50, 250, 5, true)
	w := NewWalkEstimator(g, 0.85, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Endpoints(ctx, 0, 100000, 1); err == nil {
		t.Error("cancelled serial recording returned nil error")
	}
	if _, err := w.Endpoints(ctx, 0, 100000, 4); err == nil {
		t.Error("cancelled sharded recording returned nil error")
	}
	if _, err := w.Endpoints(context.Background(), 0, 0, 1); err == nil {
		t.Error("zero walks accepted")
	}
	if _, err := w.Endpoints(context.Background(), 0, MaxWalks+1, 1); err == nil {
		t.Error("walks above MaxWalks accepted")
	}
	if _, err := w.Endpoints(context.Background(), graph.NodeID(g.NumNodes()), 10, 1); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestEndpointSetRecordingShardIndependent asserts the recorded set
// itself — not just its weighted sums — is identical for every
// recording pool size.
func TestEndpointSetRecordingShardIndependent(t *testing.T) {
	allowWorkers(t, 8)
	g := randomGraph(t, 90, 400, 29, false)
	w := NewWalkEstimator(g, 0.85, 3, 0)
	serial, err := w.Endpoints(context.Background(), 5, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		sharded, err := w.Endpoints(context.Background(), 5, 1000, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(sharded.chunks) != len(serial.chunks) {
			t.Fatalf("workers=%d: %d chunks != serial %d", workers, len(sharded.chunks), len(serial.chunks))
		}
		for c := range serial.chunks {
			if len(sharded.chunks[c]) != len(serial.chunks[c]) {
				t.Fatalf("workers=%d chunk %d: %d endpoints != serial %d",
					workers, c, len(sharded.chunks[c]), len(serial.chunks[c]))
			}
			for i, e := range serial.chunks[c] {
				if sharded.chunks[c][i] != e {
					t.Fatalf("workers=%d chunk %d entry %d: %+v != serial %+v",
						workers, c, i, sharded.chunks[c][i], e)
				}
			}
		}
	}
	if serial.Walks != 1000 || serial.NonZeros() == 0 {
		t.Errorf("recorded set malformed: walks=%d nonzeros=%d", serial.Walks, serial.NonZeros())
	}
}
