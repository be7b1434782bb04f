package bippr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// Fuzz targets double as robustness unit tests: `go test` runs the
// seed corpus; `go test -fuzz=FuzzX` explores further. Artifacts are
// read back from a user-writable data directory, so the decoders must
// fail closed on any bytes: never panic, only ever report
// Err*Corrupt or Err*Version (what the caches turn into a miss), and
// never allocate more than a small multiple of the input.

// reseal recomputes the trailing CRC so a hand-damaged artifact gets
// past the checksum and reaches the structural checks.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

// corruptions is the corruption matrix of the codec tests, applied to
// a valid artifact to seed the fuzzers.
func corruptions(data []byte) [][]byte {
	clone := func() []byte { return append([]byte(nil), data...) }
	flipped := clone()
	flipped[len(flipped)/2] ^= 0x20
	futureVersion := clone()
	futureVersion[4]++
	return [][]byte{
		clone(),
		data[:len(data)/3],
		data[:len(data)-1],
		flipped,
		reseal(futureVersion),
		[]byte("not an artifact"),
		nil,
	}
}

// allocatedBy returns the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack absorbs what the runtime and the error values allocate
// around a decode; it is far below what one forged length field costs.
const allocSlack = 1 << 20

func FuzzDecodeEndpoints(f *testing.F) {
	for _, walks := range []int{1, 129, 512} {
		a, _ := recordArtifact(f, walks)
		data, err := EncodeEndpoints(a)
		if err != nil {
			f.Fatal(err)
		}
		for _, seed := range corruptions(data) {
			f.Add(seed)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "endpoints_v2.ep"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	v1 := append([]byte(nil), golden...)
	binary.LittleEndian.PutUint16(v1[4:6], 1)
	f.Add(reseal(v1))

	// A sealed 54-byte header claiming the largest walk count: the
	// chunk table it asks for must not be allocated.
	small, err := EncodeEndpoints(EndpointArtifact{Alpha: 0.85, Seed: 1, MaxSteps: DefaultMaxSteps,
		Set: &EndpointSet{Walks: 1, chunks: [][]EndpointCount{{{Node: 5, Count: 1}}}}})
	if err != nil {
		f.Fatal(err)
	}
	forged := append([]byte(nil), small[:50]...)
	binary.LittleEndian.PutUint64(forged[34:], MaxWalks)
	binary.LittleEndian.PutUint64(forged[42:], uint64(numChunks(MaxWalks)))
	f.Add(reseal(append(forged, 0, 0, 0, 0)))
	// The same one-entry artifact with its delta as an over-long
	// varint (0x85 0x00 for 5): decodable values, non-canonical bytes.
	overlong := append([]byte(nil), small[:51]...)
	overlong = append(overlong, 0x85, 0x00)
	f.Add(reseal(append(overlong, small[52:]...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeEndpoints(t, data)
		if len(data) >= 4 {
			// A mutation almost never survives the checksum; sealing
			// the mutated bytes sends them on to the structural checks.
			checkDecodeEndpoints(t, reseal(bytes.Clone(data)))
		}
	})
}

func checkDecodeEndpoints(t *testing.T, data []byte) {
	var a EndpointArtifact
	var err error
	if got := allocatedBy(func() { a, err = DecodeEndpoints(data) }); got > 64*uint64(len(data))+allocSlack {
		t.Fatalf("decoding %d bytes allocated %d", len(data), got)
	}
	if err != nil {
		if !errors.Is(err, ErrEndpointsCorrupt) && !errors.Is(err, ErrEndpointsVersion) {
			t.Fatalf("decode error %v is neither ErrEndpointsCorrupt nor ErrEndpointsVersion", err)
		}
		return
	}
	again, err := EncodeEndpoints(a)
	if err != nil {
		t.Fatalf("re-encode of a decoded artifact failed: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("decoded artifact re-encodes to different bytes (%d vs %d)", len(again), len(data))
	}
}

func FuzzDecodeIndex(f *testing.F) {
	const seedNodes = 60 // pushIndex's graph
	for _, storage := range []Storage{StorageDense, StorageSparse} {
		data, err := EncodeIndex(pushIndex(f, storage))
		if err != nil {
			f.Fatal(err)
		}
		for _, seed := range corruptions(data) {
			f.Add(seed, uint16(seedNodes))
		}
		f.Add(data, uint16(seedNodes+1))
		// Forged node count and forged entry count, both sealed (the
		// fields TestCodecSizedDecode and
		// TestCodecEntryCountExceedingBuffer damage).
		forged := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(forged[42:], 1<<30)
		f.Add(reseal(forged), uint16(seedNodes))
		forged = append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(forged[51:], seedNodes/2)
		f.Add(reseal(forged), uint16(seedNodes))
	}

	f.Fuzz(func(t *testing.T, data []byte, nodes uint16) {
		checkDecodeIndex(t, data, nodes)
		if len(data) >= 4 {
			checkDecodeIndex(t, reseal(bytes.Clone(data)), nodes)
		}
	})
}

func checkDecodeIndex(t *testing.T, data []byte, nodes uint16) {
	// The sized decode is the one the store runs; the caller's graph
	// bounds what a dense vector may allocate.
	var idx *TargetIndex
	var err error
	budget := 64*uint64(len(data)) + 16*uint64(nodes) + allocSlack
	if got := allocatedBy(func() { idx, err = DecodeIndexSized(data, int(nodes)) }); got > budget {
		t.Fatalf("decoding %d bytes for %d nodes allocated %d", len(data), nodes, got)
	}
	if err != nil {
		if !errors.Is(err, ErrIndexCorrupt) && !errors.Is(err, ErrIndexVersion) {
			t.Fatalf("decode error %v is neither ErrIndexCorrupt nor ErrIndexVersion", err)
		}
		return
	}
	// Sparse vectors encode in map order and the decoder drops
	// zero and repeated entries, so the round trip is pinned on
	// content, not bytes: re-encoding never grows and decodes to
	// the same index.
	again, err := EncodeIndex(idx)
	if err != nil {
		t.Fatalf("re-encode of a decoded index failed: %v", err)
	}
	if len(again) > len(data) {
		t.Fatalf("re-encoding grew the artifact: %d -> %d bytes", len(data), len(again))
	}
	back, err := DecodeIndexSized(again, int(nodes))
	if err != nil {
		t.Fatalf("re-decode of own output failed: %v", err)
	}
	if back.Target != idx.Target || back.Pushes != idx.Pushes ||
		math.Float64bits(back.Alpha) != math.Float64bits(idx.Alpha) ||
		math.Float64bits(back.RMax) != math.Float64bits(idx.RMax) ||
		math.Float64bits(back.MaxResidual) != math.Float64bits(idx.MaxResidual) {
		t.Fatalf("round trip changed the header:\nwant %+v\ngot  %+v", idx, back)
	}
	for name, pair := range map[string][2]*Vector{
		"estimates": {idx.Estimates, back.Estimates},
		"residuals": {idx.Residuals, back.Residuals},
	} {
		if pair[0].IsSparse() != pair[1].IsSparse() {
			t.Fatalf("round trip changed the %s representation", name)
		}
		for v := 0; v < int(nodes); v++ {
			// == lets a dense -0 come back as the +0 of an
			// unwritten slot; the bits admit NaN payloads.
			a, b := pair[0].Get(graph.NodeID(v)), pair[1].Get(graph.NodeID(v))
			if a != b && math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round trip changed %s[%d]: %v -> %v", name, v, a, b)
			}
		}
	}
}
