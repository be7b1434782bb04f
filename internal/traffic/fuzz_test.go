package traffic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// The sketch is read back from a user-writable data directory, so
// Decode must fail closed on any bytes: never panic, only ever report
// ErrSketchCorrupt or ErrSketchVersion (what Load turns into a cold
// sketch), and never allocate more than a small multiple of the
// input. `go test` runs the seed corpus; `go test -fuzz=FuzzDecodeSketch`
// explores further.

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

// forgedHeader is a sealed artifact that ends where the counter block
// should begin: 34 bytes claiming width × depth counters.
func forgedHeader(width, depth, topK uint32) []byte {
	var buf bytes.Buffer
	writeU16(&buf, sketchCodecVersion)
	writeU32(&buf, width)
	writeU32(&buf, depth)
	writeU32(&buf, topK)
	writeU64(&buf, 0) // recorded
	writeU64(&buf, 0) // epoch
	buf.Write(make([]byte, 4))
	data := buf.Bytes()
	resealCRC(data)
	return data
}

// TestSketchDecodeForgedDimensions: the largest dimensions the range
// check admits ask for a 64 MiB counter block; a file that cannot hold
// it must be rejected before the block is allocated.
func TestSketchDecodeForgedDimensions(t *testing.T) {
	data := forgedHeader(maxWidth, maxDepth, 1)
	var err error
	got := allocatedBy(func() { _, err = Decode(data) })
	if !errors.Is(err, ErrSketchCorrupt) {
		t.Fatalf("Decode error %v, want ErrSketchCorrupt", err)
	}
	if got > allocSlack {
		t.Fatalf("rejecting a %d-byte artifact allocated %d bytes", len(data), got)
	}
}

func FuzzDecodeSketch(f *testing.F) {
	s := New(4)
	for i := 0; i < 30; i++ {
		s.Record("hot")
		s.Record("key-" + string(rune('a'+i%7)))
	}
	s.Decay()
	data := s.Encode()
	f.Add(data)
	f.Add(New(1).Encode())
	f.Add(data[:len(data)/3])
	f.Add(data[:len(data)-1])
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	for _, retired := range []uint16{1, 2} {
		old := bytes.Clone(data)
		binary.LittleEndian.PutUint16(old, retired)
		resealCRC(old)
		f.Add(old)
	}
	f.Add(forgedHeader(maxWidth, maxDepth, 1))
	// One counter, and a heavy-hitter table claiming maxTopK entries.
	forgedTop := forgedHeader(1, 1, maxTopK)
	forgedTop = binary.LittleEndian.AppendUint32(forgedTop[:len(forgedTop)-4], 0) // the counter
	forgedTop = binary.LittleEndian.AppendUint32(forgedTop, maxTopK)              // nTop
	forgedTop = append(forgedTop, 0, 0, 0, 0)
	resealCRC(forgedTop)
	f.Add(forgedTop)
	f.Add([]byte("not an artifact"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeSketch(t, data)
		if len(data) >= 4 {
			// A mutation almost never survives the checksum; sealing
			// the mutated bytes sends them on to the structural checks.
			sealed := bytes.Clone(data)
			resealCRC(sealed)
			checkDecodeSketch(t, sealed)
		}
	})
}

func checkDecodeSketch(t *testing.T, data []byte) {
	var s *Sketch
	var err error
	if got := allocatedBy(func() { s, err = Decode(data) }); got > 64*uint64(len(data))+allocSlack {
		t.Fatalf("decoding %d bytes allocated %d", len(data), got)
	}
	if err != nil {
		if !errors.Is(err, ErrSketchCorrupt) && !errors.Is(err, ErrSketchVersion) {
			t.Fatalf("decode error %v is neither ErrSketchCorrupt nor ErrSketchVersion", err)
		}
		return
	}
	// A forged table may repeat a key, which the decoded map holds
	// once, so the round trip is pinned on state, not on the input
	// bytes: Encode is a deterministic function of every field, and
	// its output must decode to a sketch that encodes the same.
	again := s.Encode()
	back, err := Decode(again)
	if err != nil {
		t.Fatalf("re-decode of own output failed: %v", err)
	}
	if !bytes.Equal(back.Encode(), again) {
		t.Fatal("round trip changed the sketch state")
	}
}
