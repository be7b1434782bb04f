package bippr

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// recordArtifact runs a real walk pass and wraps it as the codec's
// unit of persistence.
func recordArtifact(t testing.TB, walks int) (EndpointArtifact, *graph.Graph) {
	t.Helper()
	g := randomGraph(t, 70, 300, 19, true)
	w := NewWalkEstimator(g, 0.85, 5, 0)
	set, err := w.Endpoints(context.Background(), 4, walks, 1)
	if err != nil {
		t.Fatal(err)
	}
	return EndpointArtifact{Source: 4, Alpha: 0.85, Seed: 5, MaxSteps: DefaultMaxSteps, Set: set}, g
}

// endpointSetsEqual compares two sets chunk by chunk.
func endpointSetsEqual(t *testing.T, want, got *EndpointSet) {
	t.Helper()
	if got.Walks != want.Walks || len(got.chunks) != len(want.chunks) {
		t.Fatalf("shape mismatch: walks %d/%d, chunks %d/%d",
			got.Walks, want.Walks, len(got.chunks), len(want.chunks))
	}
	for c := range want.chunks {
		if len(got.chunks[c]) != len(want.chunks[c]) {
			t.Fatalf("chunk %d: %d entries, want %d", c, len(got.chunks[c]), len(want.chunks[c]))
		}
		for i, e := range want.chunks[c] {
			if got.chunks[c][i] != e {
				t.Fatalf("chunk %d entry %d: %+v, want %+v", c, i, got.chunks[c][i], e)
			}
		}
	}
}

func TestEndpointCodecRoundTrip(t *testing.T) {
	for _, walks := range []int{1, 127, 128, 129, 1000} {
		a, g := recordArtifact(t, walks)
		data, err := EncodeEndpoints(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEndpointsSized(data, g.NumNodes())
		if err != nil {
			t.Fatalf("walks=%d: %v", walks, err)
		}
		if got.Source != a.Source || got.Alpha != a.Alpha || got.Seed != a.Seed || got.MaxSteps != a.MaxSteps {
			t.Fatalf("walks=%d: header mismatch: %+v vs %+v", walks, got, a)
		}
		endpointSetsEqual(t, a.Set, got.Set)
		// The decoded set re-weights bit-identically — the property
		// persistence must preserve.
		values := make([]float64, g.NumNodes())
		for i := range values {
			values[i] = float64(i%7) * 1e-4
		}
		wv := NewDenseVector(values)
		if got.Set.EstimateSum(wv) != a.Set.EstimateSum(wv) {
			t.Fatalf("walks=%d: decoded set folds differently", walks)
		}
	}
}

func TestEndpointCodecVersionMismatch(t *testing.T) {
	a, _ := recordArtifact(t, 256)
	data, err := EncodeEndpoints(a)
	if err != nil {
		t.Fatal(err)
	}
	// Set the version field — the next version, and the retired
	// version 1 — and re-seal the checksum so only the version check
	// can fail.
	for _, version := range []uint16{endpointCodecVersion + 1, 1} {
		binary.LittleEndian.PutUint16(data[4:6], version)
		reseal(data)
		if _, err := DecodeEndpoints(data); !errors.Is(err, ErrEndpointsVersion) {
			t.Fatalf("version %d decoded as %v, want ErrEndpointsVersion", version, err)
		}
	}
}

func TestEndpointCodecCorruption(t *testing.T) {
	a, g := recordArtifact(t, 512)
	data, err := EncodeEndpoints(a)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"bit-flip":  func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0x20; return b },
		"garbage":   func([]byte) []byte { return []byte("not a recording") },
		"empty":     func([]byte) []byte { return nil },
	} {
		if _, err := DecodeEndpointsSized(mutate(append([]byte(nil), data...)), g.NumNodes()); !errors.Is(err, ErrEndpointsCorrupt) {
			t.Errorf("%s decoded as %v, want ErrEndpointsCorrupt", name, err)
		}
	}
	// A valid artifact loaded for a smaller graph is rejected before
	// any endpoint can index out of a weight vector's bounds.
	if _, err := DecodeEndpointsSized(data, 2); !errors.Is(err, ErrEndpointsCorrupt) {
		t.Errorf("undersized graph decode = %v, want ErrEndpointsCorrupt", err)
	}
}
