package bippr

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// indexesEqual compares two indexes entry by entry, including the
// vector representation (the codec round-trips dense as dense and
// sparse as sparse).
func indexesEqual(t *testing.T, want, got *TargetIndex) {
	t.Helper()
	if got.Target != want.Target || got.Alpha != want.Alpha || got.RMax != want.RMax ||
		got.Pushes != want.Pushes || got.MaxResidual != want.MaxResidual {
		t.Fatalf("metadata mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	for name, pair := range map[string][2]*Vector{
		"estimates": {want.Estimates, got.Estimates},
		"residuals": {want.Residuals, got.Residuals},
	} {
		w, g := pair[0], pair[1]
		if g.NumNodes() != w.NumNodes() {
			t.Fatalf("%s spans %d nodes, want %d", name, g.NumNodes(), w.NumNodes())
		}
		if g.IsSparse() != w.IsSparse() {
			t.Fatalf("%s representation changed: sparse=%v, want %v", name, g.IsSparse(), w.IsSparse())
		}
		for v := 0; v < w.NumNodes(); v++ {
			if g.Get(graph.NodeID(v)) != w.Get(graph.NodeID(v)) {
				t.Fatalf("%s[%d] = %v, want %v", name, v, g.Get(graph.NodeID(v)), w.Get(graph.NodeID(v)))
			}
		}
	}
}

// pushIndex builds a real index off a small random graph with the
// requested storage.
func pushIndex(t testing.TB, storage Storage) *TargetIndex {
	t.Helper()
	g := randomGraph(t, 60, 240, 7, true)
	idx, err := ReversePushStored(context.Background(), g, 3, 0.85, 1e-4, storage)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestCodecRoundTripDense(t *testing.T) {
	idx := pushIndex(t, StorageDense)
	data, err := EncodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, idx, got)
}

func TestCodecRoundTripSparse(t *testing.T) {
	idx := pushIndex(t, StorageSparse)
	if !idx.Estimates.IsSparse() {
		t.Fatal("forced-sparse index is not sparse")
	}
	data, err := EncodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	indexesEqual(t, idx, got)
}

// TestCodecRoundTripServesIdenticalQueries is the semantic round-trip:
// a pair estimate computed from a decoded index is bit-identical to
// one from the original.
func TestCodecRoundTripServesIdenticalQueries(t *testing.T) {
	g := randomGraph(t, 60, 240, 7, true)
	idx, err := ReversePush(context.Background(), g, 3, 0.85, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 0.85, RMax: 1e-4, Walks: 500, Seed: 1}.withDefaults()
	orig, err := pairFromIndex(context.Background(), g, 11, idx, p)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := pairFromIndex(context.Background(), g, 11, decoded, p)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Value != fromDisk.Value {
		t.Fatalf("decoded index served %v, original %v", fromDisk.Value, orig.Value)
	}
}

func TestCodecVersionMismatch(t *testing.T) {
	data, err := EncodeIndex(pushIndex(t, StorageAuto))
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version field (offset 4, after the magic) and re-seal
	// the checksum so only the version is wrong.
	binary.LittleEndian.PutUint16(data[4:], indexCodecVersion+1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	if _, err := DecodeIndex(data); !errors.Is(err, ErrIndexVersion) {
		t.Fatalf("decoding future-version artifact: got %v, want ErrIndexVersion", err)
	}
}

func TestCodecTruncation(t *testing.T) {
	data, err := EncodeIndex(pushIndex(t, StorageAuto))
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail loudly (never decode garbage); the
	// store then treats it as a miss and recomputes.
	for _, cut := range []int{0, 3, 5, 6, 20, len(data) / 2, len(data) - 1} {
		if _, err := DecodeIndex(data[:cut]); err == nil {
			t.Fatalf("decoding %d/%d-byte truncation succeeded", cut, len(data))
		}
	}
}

func TestCodecBitFlipDetected(t *testing.T) {
	data, err := EncodeIndex(pushIndex(t, StorageAuto))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{6, 10, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := DecodeIndex(bad); !errors.Is(err, ErrIndexCorrupt) && !errors.Is(err, ErrIndexVersion) {
			t.Fatalf("bit flip at %d: got %v, want corruption error", off, err)
		}
	}
}

func TestCodecSizedDecode(t *testing.T) {
	idx := pushIndex(t, StorageAuto)
	data, err := EncodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	n := idx.Estimates.NumNodes()
	if _, err := DecodeIndexSized(data, n); err != nil {
		t.Fatalf("matching size rejected: %v", err)
	}
	// A size mismatch must be rejected up front — before the decoder
	// would allocate vectors sized by the (possibly forged) header.
	if _, err := DecodeIndexSized(data, n+1); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("size mismatch: got %v, want ErrIndexCorrupt", err)
	}

	// A CRC-valid artifact whose header claims a huge node count must
	// fail the sized decode without a giant allocation. The nodes
	// field sits at offset 42: magic(4) + version(2) + target(4) +
	// alpha(8) + rmax(8) + pushes(8) + maxResidual(8).
	forged := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(forged[42:], 1<<30)
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.ChecksumIEEE(forged[:len(forged)-4]))
	if _, err := DecodeIndexSized(forged, n); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("forged node count: got %v, want ErrIndexCorrupt", err)
	}
}

func TestCodecEntryCountExceedingBuffer(t *testing.T) {
	// A large ring pushed sparsely: huge n, tiny touched set, so a
	// forged entry count can be far below n yet far beyond the bytes
	// the artifact actually holds.
	const n = 100_000
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n))
	}
	ring, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ReversePushStored(context.Background(), ring, 0, 0.85, 1e-4, StorageSparse)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the estimates vector's entry count — at offset 51, after
	// the 50-byte header and the repr byte — and re-seal the CRC: the
	// decoder must reject the claim before sizing allocations by it.
	forged := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(forged[51:], n/2)
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.ChecksumIEEE(forged[:len(forged)-4]))
	if _, err := DecodeIndex(forged); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("inflated entry count: got %v, want ErrIndexCorrupt", err)
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	if _, err := DecodeIndex([]byte("JSON{not an index}")); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("got %v, want ErrIndexCorrupt", err)
	}
	if _, err := DecodeIndex(nil); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("nil input: got %v, want ErrIndexCorrupt", err)
	}
}
