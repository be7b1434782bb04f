package datastore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzDecodeSnapshot: dataset snapshots are read back from a
// user-writable data directory, so the decoder must fail closed on any
// bytes — never panic, only ever report ErrSnapshotCorrupt or
// ErrSnapshotVersion, never allocate more than a small multiple of the
// input — and a snapshot it accepts must re-encode to the same bytes.
// `go test` runs the seed corpus; `go test -fuzz=FuzzDecodeSnapshot`
// explores further.
func FuzzDecodeSnapshot(f *testing.F) {
	graphs := snapshotGraphs(f)
	for _, name := range []string{"labeled", "unlabeled"} {
		data := encodeSnapshot(graphs[name])
		f.Add(data)
		for _, cut := range []int{len(data) / 3, len(data) / 2, len(data) - 1, snapshotHeaderLen} {
			f.Add(data[:cut])
		}
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 0x20
		f.Add(flipped)
	}
	f.Add(encodeSnapshot(graphs["empty"]))
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeSnapshot(t, data)
		if len(data) >= 4 {
			// A mutation almost never survives the checksum; sealing
			// the mutated bytes sends them on to the structural checks.
			checkDecodeSnapshot(t, reseal(bytes.Clone(data)))
		}
	})
}

// allocSlack absorbs what the runtime, the fingerprint's hash buffer
// and the error values allocate around a decode; it is far below what
// one forged count would cost.
const allocSlack = 1 << 20

func checkDecodeSnapshot(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := decodeSnapshot(data)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64*uint64(len(data))+allocSlack {
		t.Fatalf("decoding %d bytes allocated %d", len(data), got)
	}
	if err != nil {
		if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("decode error %v is neither ErrSnapshotCorrupt nor ErrSnapshotVersion", err)
		}
		return
	}
	if again := encodeSnapshot(g); !bytes.Equal(again, data) {
		t.Fatalf("decoded snapshot re-encodes to different bytes (%d vs %d)", len(again), len(data))
	}
}
