package bippr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/datastore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestEndpointCodecV2DeltaOverflow rejects a structurally valid v2
// file whose accumulated delta escapes the graph's id space — the CRC
// is re-sealed so only the decoder's range check can catch it.
func TestEndpointCodecV2DeltaOverflow(t *testing.T) {
	a := EndpointArtifact{Source: 0, Alpha: 0.85, Seed: 1, MaxSteps: DefaultMaxSteps,
		Set: &EndpointSet{Walks: 2, chunks: [][]EndpointCount{{{Node: 5, Count: 2}}}}}
	data, err := EncodeEndpoints(a)
	if err != nil {
		t.Fatal(err)
	}
	// Body: 50-byte header, then chunk 0 = n(1), delta(5), count-1(1).
	// Overwrite the one-byte delta with an id far past a 10-node graph.
	if len(data) != 57 || data[51] != 5 {
		t.Fatalf("framing shifted (len=%d, delta byte=%d); update the offsets", len(data), data[51])
	}
	data[51] = 200
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	if _, err := DecodeEndpointsSized(data, 10); !errors.Is(err, ErrEndpointsCorrupt) {
		t.Fatalf("out-of-range delta decoded as %v, want ErrEndpointsCorrupt", err)
	}
}

// TestEndpointCodecMixedVersionsDiskTier is the upgrade-path test: a
// disk tier still holding a version-1 file (planted as current bytes
// with the version field set to 1 and the CRC re-sealed) must treat it
// as a miss, re-walk, overwrite it in the current version, and serve
// the overwritten file as a disk hit on the next reopen.
func TestEndpointCodecMixedVersionsDiskTier(t *testing.T) {
	g := randomGraph(t, 70, 300, 19, true)
	w := NewWalkEstimator(g, 0.85, 5, 0)
	fp := sharedFingerprints.get(g)
	p := Params{Alpha: 0.85, Seed: 5, MaxSteps: DefaultMaxSteps, Walks: 300}
	set, err := w.Endpoints(context.Background(), 4, p.Walks, 1)
	if err != nil {
		t.Fatal(err)
	}

	v1Data, err := EncodeEndpoints(EndpointArtifact{
		Source: 4, Alpha: p.Alpha, Seed: p.Seed, MaxSteps: p.MaxSteps, Set: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(v1Data[4:6], 1)
	reseal(v1Data)
	ds, err := datastore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fileKey := EndpointFileKey(4, p.Alpha, p.Seed, p.MaxSteps, p.Walks)
	if err := ds.SaveEndpoints(fp, fileKey, v1Data); err != nil {
		t.Fatal(err)
	}

	// First open: the v1 file is a miss, the walk pass re-runs and the
	// file is overwritten.
	walked := 0
	rewalk := func() (*EndpointSet, error) {
		walked++
		return w.Endpoints(context.Background(), 4, p.Walks, 1)
	}
	first := NewTieredEndpointCache(4, ds)
	got, cached, err := first.GetOrRecord(context.Background(), g, 4, p, rewalk)
	if err != nil {
		t.Fatal(err)
	}
	if cached || walked != 1 {
		t.Errorf("v1 file served without a re-walk (cached=%v, walk passes=%d)", cached, walked)
	}
	endpointSetsEqual(t, set, got)
	if s := first.Stats(); s.Misses != 1 || s.DiskHits != 0 || s.DiskErrors != 1 || s.DiskWrites != 1 {
		t.Errorf("first-open stats = %+v, want one miss, one failed load and one write", s)
	}
	onDisk, err := ds.LoadEndpoints(fp, fileKey)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(onDisk[4:6]); v != endpointCodecVersion {
		t.Errorf("overwritten file has version %d, want %d", v, endpointCodecVersion)
	}

	// "Restart": a fresh cache over the same files must disk-hit.
	reopened := NewTieredEndpointCache(4, ds)
	got, cached, err = reopened.GetOrRecord(context.Background(), g, 4, p, rewalk)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || walked != 1 {
		t.Errorf("overwritten file not served from disk (cached=%v, walk passes=%d)", cached, walked)
	}
	endpointSetsEqual(t, set, got)
	if s := reopened.Stats(); s.DiskHits != 1 || s.DiskErrors != 0 {
		t.Errorf("reopen stats = %+v, want one disk hit and no errors", s)
	}
}

// TestEndpointCodecV2Golden freezes the v2 wire format: a
// hand-constructed (RNG-independent) endpoint set must encode to the
// exact bytes in testdata, so any framing drift — header field order,
// varint packing, the gap-minus-one convention — fails loudly instead
// of silently orphaning every persisted artifact. Regenerate with
// `go test -run TestEndpointCodecV2Golden -update` after a DELIBERATE
// format change (which must also bump endpointCodecVersion).
func TestEndpointCodecV2Golden(t *testing.T) {
	set := &EndpointSet{Walks: 200, chunks: [][]EndpointCount{
		{{Node: 0, Count: 1}, {Node: 7, Count: 3}, {Node: 1000, Count: 120}},
		{{Node: 16383, Count: 1}, {Node: 16384, Count: 71}},
	}}
	data, err := EncodeEndpoints(EndpointArtifact{
		Source: 42, Alpha: 0.85, Seed: -1, MaxSteps: DefaultMaxSteps, Set: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "endpoints_v2.ep")
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("encoded bytes drifted from golden file (%d vs %d bytes); if the wire format "+
			"changed deliberately, bump endpointCodecVersion and regenerate with -update", len(data), len(golden))
	}
	// And the golden file itself must keep decoding to the same set.
	got, err := DecodeEndpoints(golden)
	if err != nil {
		t.Fatal(err)
	}
	endpointSetsEqual(t, set, got.Set)
}
