package server

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/traffic"
)

// bootServer opens a datastore over dir and boots a server on the
// complete-50 catalog. Catalog and store are filled in; the caller
// owns shutdown (sequential boots inside one test need explicit
// ordering that t.Cleanup cannot express).
func bootServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := datasets.BuiltinCatalogSubset("complete-50")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = catalog
	cfg.Store = store
	if cfg.Registry == nil {
		cfg.Registry = algo.NewBuiltinRegistry()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s)
}

func closeBoot(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Scheduler().Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestControlLoopTrafficDecayThreeBoots: a sketch artifact of the
// retired v2 codec boots cold and is overwritten as v3 on close; a hot
// key persisted in a v3 artifact loads, gets pinned by the learned
// pre-warm while hot, decays across a boot with a short half-life, and
// by the third boot has aged out of the pre-warm pin set — with the
// decay epoch carried in the artifact so restarts never replay or skip
// halvings.
func TestControlLoopTrafficDecayThreeBoots(t *testing.T) {
	dir := t.TempDir()

	// Seed an artifact holding the exact warm keys a bippr-pair
	// "0"->"1" query records (defaults applied, so the pre-warm
	// recomputes byte-identical cache keys).
	store, err := datastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := traffic.Load(nil, 0)
	bp := bippr.Params{}.WithDefaults()
	sk.Record(traffic.WarmKey{
		Kind: traffic.KindIndex, Dataset: "complete-50", Node: "1",
		Alpha: bp.Alpha, RMax: bp.RMax,
	}.String())
	sk.Record(traffic.WarmKey{
		Kind: traffic.KindEndpoints, Dataset: "complete-50", Node: "0",
		Alpha: bp.Alpha, Seed: bp.Seed, MaxSteps: bp.MaxSteps, Walks: bp.Walks,
	}.String())

	// Boot 0: the same bytes with the version field set to 2 and the
	// checksum re-sealed are a version mismatch, so the server starts
	// cold and its closing persist replaces the file with a v3 one.
	v2 := sk.Encode()
	binary.LittleEndian.PutUint16(v2, 2)
	binary.LittleEndian.PutUint32(v2[len(v2)-4:], crc32.ChecksumIEEE(v2[:len(v2)-4]))
	if err := store.SaveTrafficSketch(v2); err != nil {
		t.Fatal(err)
	}
	s0, ts0 := bootServer(t, dir, Config{TrafficHalfLife: -1})
	if tr := s0.trafficStatus(); tr.Restored || tr.Tracked != 0 || tr.Recorded != 0 {
		t.Fatalf("boot 0 warmed up from a v2 artifact: %+v", tr)
	}
	closeBoot(t, s0, ts0)
	data, err := store.LoadTrafficSketch()
	if err != nil {
		t.Fatal(err)
	}
	if version := binary.LittleEndian.Uint16(data); version != 3 {
		t.Fatalf("boot 0 rewrote the artifact as version %d, want 3", version)
	}
	if rewritten, err := traffic.Decode(data); err != nil || rewritten.Stats().Recorded != 0 {
		t.Fatalf("boot 0 left no cold v3 artifact behind: %v", err)
	}

	// Boot 1: the v3 artifact loads (restored, epoch 0) and the learned
	// pre-warm pins both hot artifacts. No decay this boot.
	if err := store.SaveTrafficSketch(sk.Encode()); err != nil {
		t.Fatal(err)
	}
	s1, ts1 := bootServer(t, dir, Config{PreWarm: true, TrafficHalfLife: -1})
	waitPrewarm(t, ts1.URL)
	tr := s1.trafficStatus()
	if !tr.Restored || tr.DecayEpoch != 0 || tr.Tracked != 2 {
		t.Fatalf("boot 1 did not restore the artifact: %+v", tr)
	}
	if tr.Pinned != 2 {
		t.Fatalf("boot 1 pinned %d artifacts, want the 2 hot keys", tr.Pinned)
	}
	closeBoot(t, s1, ts1)

	// Boot 2: a short half-life decays the counts (1 each) to zero,
	// dropping both keys from the heavy-hitter table.
	s2, ts2 := bootServer(t, dir, Config{TrafficHalfLife: 25 * time.Millisecond})
	if tr := s2.trafficStatus(); !tr.Restored || tr.Tracked != 2 {
		t.Fatalf("boot 2 did not restore the artifact: %+v", tr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tr = s2.trafficStatus()
		if tr.Tracked == 0 && tr.DecayEpoch >= 1 && tr.Decays >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("boot 2 never decayed the hot keys: %+v", tr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeBoot(t, s2, ts2) // persists the decayed sketch + epoch

	// Boot 3: the formerly-hot keys are gone from the restored sketch,
	// so the learned pre-warm finds nothing to warm and pins nothing.
	s3, ts3 := bootServer(t, dir, Config{PreWarm: true, TrafficHalfLife: -1})
	defer closeBoot(t, s3, ts3)
	waitPrewarm(t, ts3.URL)
	tr = s3.trafficStatus()
	if !tr.Restored || tr.DecayEpoch < 1 {
		t.Fatalf("boot 3 lost the decay epoch: %+v", tr)
	}
	if tr.Tracked != 0 || tr.Pinned != 0 {
		t.Errorf("formerly-hot keys still warm on boot 3: tracked %d pinned %d", tr.Tracked, tr.Pinned)
	}
	if warm := s3.prewarm.snapshot(); warm.LearnedKeys != 0 {
		t.Errorf("learned pre-warm saw %d keys, want 0 after decay", warm.LearnedKeys)
	}
}
