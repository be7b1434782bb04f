package traffic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Binary layout of a persisted sketch (little-endian):
//
//	version  uint16   sketchCodecVersion
//	width    uint32
//	depth    uint32
//	topK     uint32
//	recorded uint64
//	epoch    uint64   completed decay passes
//	counts   width·depth × uint32
//	nTop     uint32
//	entries  nTop × (keyLen uint16, key bytes, count uint64)
//	crc32    uint32   IEEE checksum of everything above
//
// This is version 3 (v1 had no decay epoch; v2 also carried a section
// of cost-calibration rates). Decode accepts no other version: an
// older artifact is ErrSketchVersion, Load answers it with a cold
// sketch, and the next persist overwrites it as v3.
//
// The trailing checksum plus the version field make loads
// corruption-tolerant in the PR 3/5 artifact style — but with a
// softer consumer contract: the sketch is pure optimization state, so
// callers use Load, which turns ANY decode failure (future version,
// truncation, bit flip) into a cold sketch. Corruption costs warmth,
// never correctness.
const sketchCodecVersion = 3

// ErrSketchCorrupt reports a persisted sketch that failed structural
// validation or its checksum.
var ErrSketchCorrupt = errors.New("traffic: sketch artifact corrupt")

// ErrSketchVersion reports a persisted sketch written by a different
// codec version.
var ErrSketchVersion = errors.New("traffic: sketch artifact version mismatch")

// Encode serializes the sketch into the binary format above. Heavy
// hitters go out in TopK order, so identical sketches encode
// identically.
func (s *Sketch) Encode() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	writeU16(&buf, sketchCodecVersion)
	writeU32(&buf, uint32(s.width))
	writeU32(&buf, uint32(s.depth))
	writeU32(&buf, uint32(s.topK))
	writeU64(&buf, s.recorded)
	writeU64(&buf, s.decayEpoch)
	for _, c := range s.counts {
		writeU32(&buf, c)
	}
	top := make([]KeyCount, 0, len(s.top))
	for k, c := range s.top {
		top = append(top, KeyCount{Key: k, Count: c})
	}
	sortKeyCounts(top)
	writeU32(&buf, uint32(len(top)))
	for _, kc := range top {
		writeU16(&buf, uint16(len(kc.Key)))
		buf.WriteString(kc.Key)
		writeU64(&buf, kc.Count)
	}
	writeU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// Decode parses a persisted sketch, distinguishing version mismatch
// from corruption for callers that care; most should use Load.
func Decode(data []byte) (*Sketch, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes, shorter than checksum", ErrSketchCorrupt, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSketchCorrupt)
	}
	r := byteReader{data: body}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	if version != sketchCodecVersion {
		return nil, fmt.Errorf("%w: file version %d, codec version %d",
			ErrSketchVersion, version, sketchCodecVersion)
	}
	width, err := r.u32()
	if err != nil {
		return nil, err
	}
	depth, err := r.u32()
	if err != nil {
		return nil, err
	}
	topK, err := r.u32()
	if err != nil {
		return nil, err
	}
	if width == 0 || width > maxWidth || depth == 0 || depth > maxDepth || topK == 0 || topK > maxTopK {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%d topK %d", ErrSketchCorrupt, width, depth, topK)
	}
	recorded, err := r.u64()
	if err != nil {
		return nil, err
	}
	epoch, err := r.u64()
	if err != nil {
		return nil, err
	}
	// The counter block is the bulk of the file; a header that claims
	// more of it than there are bytes left is rejected before the
	// allocation, not after.
	cells := int(width) * int(depth)
	if 4*cells > r.remaining() {
		return nil, fmt.Errorf("%w: %dx%d counters need %d bytes, %d left",
			ErrSketchCorrupt, width, depth, 4*cells, r.remaining())
	}
	counts := make([]uint32, cells)
	for i := range counts {
		if counts[i], err = r.u32(); err != nil {
			return nil, err
		}
	}
	nTop, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nTop > topK {
		return nil, fmt.Errorf("%w: %d heavy hitters exceed topK %d", ErrSketchCorrupt, nTop, topK)
	}
	// Same rule for the table the map is sized from: an entry is at
	// least keyLen(2) + one key byte + count(8).
	if 11*int(nTop) > r.remaining() {
		return nil, fmt.Errorf("%w: %d heavy hitters in %d bytes", ErrSketchCorrupt, nTop, r.remaining())
	}
	top := make(map[string]uint64, nTop)
	for i := uint32(0); i < nTop; i++ {
		klen, err := r.u16()
		if err != nil {
			return nil, err
		}
		if klen == 0 || int(klen) > maxKeyLen {
			return nil, fmt.Errorf("%w: key length %d", ErrSketchCorrupt, klen)
		}
		key, err := r.bytes(int(klen))
		if err != nil {
			return nil, err
		}
		count, err := r.u64()
		if err != nil {
			return nil, err
		}
		top[string(key)] = count
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSketchCorrupt, r.remaining())
	}
	return &Sketch{
		width:      int(width),
		depth:      int(depth),
		topK:       int(topK),
		counts:     counts,
		top:        top,
		recorded:   recorded,
		decayEpoch: epoch,
	}, nil
}

// Load decodes persisted sketch bytes, falling back to a cold sketch
// (with the caller's topK) on ANY failure — nil/empty data, version
// mismatch, truncation, bit flips. The bool reports whether the warm
// state survived.
func Load(data []byte, topK int) (*Sketch, bool) {
	if len(data) == 0 {
		return New(topK), false
	}
	s, err := Decode(data)
	if err != nil {
		return New(topK), false
	}
	return s, true
}

func sortKeyCounts(kcs []KeyCount) {
	sort.Slice(kcs, func(i, j int) bool {
		if kcs[i].Count != kcs[j].Count {
			return kcs[i].Count > kcs[j].Count
		}
		return kcs[i].Key < kcs[j].Key
	})
}

// writeU16/U32/U64 append little-endian integers (codec.go idiom).
func writeU16(buf *bytes.Buffer, x uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], x)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, x uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	buf.Write(b[:])
}

// byteReader is a bounds-checked little-endian cursor.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) remaining() int { return len(r.data) - r.off }

func (r *byteReader) bytes(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("%w: truncated (%d bytes needed, %d left): %w",
			ErrSketchCorrupt, n, r.remaining(), io.ErrUnexpectedEOF)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *byteReader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *byteReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *byteReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
