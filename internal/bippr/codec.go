package bippr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// On-disk target-index format (little endian):
//
//	magic   [4]byte  "BPIX"
//	version uint16   indexCodecVersion
//	target  int32
//	alpha   float64
//	rmax    float64
//	pushes  int64
//	maxRes  float64
//	nodes   int64    graph size the vectors span
//	estimates, residuals:
//	  repr  uint8    0 = dense, 1 = sparse
//	  nnz   int64    explicitly stored entries
//	  nnz × (node int32, value float64)
//	crc32   uint32   IEEE checksum of everything above
//
// Only non-zero entries are written, so files are sized by what the
// push touched, mirroring the in-memory sparse representation. The
// repr byte round-trips the representation itself: a decoded dense
// index stays dense, a sparse one stays sparse.
//
// The trailing checksum plus the version field make loads
// corruption-tolerant: a truncated, garbled, or older/newer-format
// file fails to decode and the caller treats it as a cache miss and
// recomputes — a bad artifact can cost time, never correctness.

// indexCodecVersion is bumped whenever the layout above changes;
// decoding any other version fails with ErrIndexVersion.
const indexCodecVersion uint16 = 1

var indexMagic = [4]byte{'B', 'P', 'I', 'X'}

// ErrIndexVersion reports an index artifact written by a different
// codec version. Loaders treat it as a miss and recompute.
var ErrIndexVersion = errors.New("bippr: index artifact version mismatch")

// ErrIndexCorrupt reports an index artifact that failed structural or
// checksum validation. Loaders treat it as a miss and recompute.
var ErrIndexCorrupt = errors.New("bippr: index artifact corrupt")

const (
	reprDense  uint8 = 0
	reprSparse uint8 = 1
)

// EncodeIndex serializes a target index into the versioned binary
// artifact format above.
func EncodeIndex(idx *TargetIndex) ([]byte, error) {
	if idx == nil || idx.Estimates == nil || idx.Residuals == nil {
		return nil, fmt.Errorf("bippr: cannot encode nil index")
	}
	if idx.Estimates.NumNodes() != idx.Residuals.NumNodes() {
		return nil, fmt.Errorf("bippr: index vectors span %d and %d nodes",
			idx.Estimates.NumNodes(), idx.Residuals.NumNodes())
	}
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	writeU16(&buf, indexCodecVersion)
	writeU32(&buf, uint32(idx.Target))
	writeU64(&buf, math.Float64bits(idx.Alpha))
	writeU64(&buf, math.Float64bits(idx.RMax))
	writeU64(&buf, uint64(idx.Pushes))
	writeU64(&buf, math.Float64bits(idx.MaxResidual))
	writeU64(&buf, uint64(idx.Estimates.NumNodes()))
	encodeVector(&buf, idx.Estimates)
	encodeVector(&buf, idx.Residuals)
	writeU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes(), nil
}

func encodeVector(buf *bytes.Buffer, x *Vector) {
	repr := reprDense
	if x.IsSparse() {
		repr = reprSparse
	}
	buf.WriteByte(repr)
	writeU64(buf, uint64(x.NonZeros()))
	x.ForEach(func(v graph.NodeID, val float64) bool {
		writeU32(buf, uint32(v))
		writeU64(buf, math.Float64bits(val))
		return true
	})
}

// DecodeIndex parses an artifact written by EncodeIndex. Any
// structural damage — truncation, bit flips, wrong magic — yields
// ErrIndexCorrupt, and a version change yields ErrIndexVersion, so
// callers can uniformly fall back to recomputation.
func DecodeIndex(data []byte) (*TargetIndex, error) {
	return DecodeIndexSized(data, -1)
}

// DecodeIndexSized is DecodeIndex with the node count the caller
// expects (from the graph the artifact is being loaded for); an
// artifact claiming any other size is rejected as corrupt *before*
// vectors are allocated, so a forged or damaged header cannot
// request a multi-gigabyte allocation. wantNodes < 0 skips the check
// (offline tools and tests that have no graph at hand).
func DecodeIndexSized(data []byte, wantNodes int) (*TargetIndex, error) {
	r := &byteReader{data: data}
	var magic [4]byte
	if err := r.read(magic[:]); err != nil || magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrIndexCorrupt)
	}
	version, err := r.u16()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrIndexCorrupt)
	}
	if version != indexCodecVersion {
		return nil, fmt.Errorf("%w: file version %d, codec version %d",
			ErrIndexVersion, version, indexCodecVersion)
	}
	// Validate the checksum before trusting any length fields.
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated", ErrIndexCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrIndexCorrupt)
	}
	r.limit = len(body)

	idx := &TargetIndex{}
	tgt, err1 := r.u32()
	alpha, err2 := r.u64()
	rmax, err3 := r.u64()
	pushes, err4 := r.u64()
	maxRes, err5 := r.u64()
	nodes, err6 := r.u64()
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrIndexCorrupt)
	}
	if nodes > uint64(graph.MaxNodeID)+1 {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrIndexCorrupt, nodes)
	}
	if wantNodes >= 0 && nodes != uint64(wantNodes) {
		return nil, fmt.Errorf("%w: artifact spans %d nodes, graph has %d", ErrIndexCorrupt, nodes, wantNodes)
	}
	idx.Target = graph.NodeID(tgt)
	idx.Alpha = math.Float64frombits(alpha)
	idx.RMax = math.Float64frombits(rmax)
	idx.Pushes = int64(pushes)
	idx.MaxResidual = math.Float64frombits(maxRes)
	n := int(nodes)
	if idx.Estimates, err = decodeVector(r, n); err != nil {
		return nil, err
	}
	if idx.Residuals, err = decodeVector(r, n); err != nil {
		return nil, err
	}
	if r.pos != r.limit {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrIndexCorrupt, r.limit-r.pos)
	}
	return idx, nil
}

func decodeVector(r *byteReader, n int) (*Vector, error) {
	repr, err := r.u8()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated vector", ErrIndexCorrupt)
	}
	nnz, err := r.u64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated vector", ErrIndexCorrupt)
	}
	if nnz > uint64(n) {
		return nil, fmt.Errorf("%w: %d entries in a %d-node vector", ErrIndexCorrupt, nnz, n)
	}
	// Each entry is 12 bytes; a claimed count the buffer cannot hold
	// is rejected before sizing the map by it.
	if nnz*12 > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: %d entries exceed remaining bytes", ErrIndexCorrupt, nnz)
	}
	var x *Vector
	switch repr {
	case reprDense:
		x = &Vector{n: n, dense: make([]float64, n)}
	case reprSparse:
		x = &Vector{n: n, sparse: make(map[graph.NodeID]float64, nnz)}
	default:
		return nil, fmt.Errorf("%w: unknown vector representation %d", ErrIndexCorrupt, repr)
	}
	for i := uint64(0); i < nnz; i++ {
		node, err1 := r.u32()
		bits, err2 := r.u64()
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("%w: truncated vector entries", ErrIndexCorrupt)
		}
		if node >= uint32(n) {
			return nil, fmt.Errorf("%w: node %d outside [0,%d)", ErrIndexCorrupt, node, n)
		}
		v := graph.NodeID(node)
		if x.dense != nil {
			x.dense[v] = math.Float64frombits(bits)
		} else {
			x.sparse[v] = math.Float64frombits(bits)
		}
	}
	return x, nil
}

// On-disk walk-endpoint format (little endian):
//
//	magic    [4]byte  "BPEP"
//	version  uint16   endpointCodecVersion
//	source   int32
//	alpha    float64
//	seed     int64
//	maxSteps int64
//	walks    int64
//	chunks   int64    must equal numChunks(walks)
//	per chunk:
//	  n      uvarint  RLE entries
//	  n × (delta uvarint, count-1 uvarint)
//	crc32    uint32   IEEE checksum of everything above
//
// The chunk framing exploits the chunk invariants: nodes are strictly
// increasing, so the first entry stores the node id itself and every
// later entry stores the gap minus one (node_i − node_{i−1} − 1);
// counts are at least 1, so count−1 is stored. Both go out as
// unsigned varints. Typical recordings spread a chunk's ≤128
// endpoints across a large id space with small counts, so most
// entries cost 2-4 bytes.
//
// A recorded endpoint set is a pure function of (graph structure,
// source, alpha, seed, maxSteps, walks) — the same purity that makes
// reverse-push indexes safe to persist — so the header echoes every
// parameter and loaders reject a file whose echo differs from the
// request. Like the index format, the trailing checksum plus the
// version field make loads corruption-tolerant: a damaged artifact
// fails to decode, the caller re-walks and overwrites, and a bad file
// can cost time, never correctness.

// endpointCodecVersion is bumped whenever the layout above changes;
// decoding any other version — including the fixed-width version 1
// files older builds wrote — fails with ErrEndpointsVersion, and the
// cache re-walks and overwrites (re-walks are bit-identical by
// construction).
const endpointCodecVersion uint16 = 2

var endpointMagic = [4]byte{'B', 'P', 'E', 'P'}

// ErrEndpointsVersion reports an endpoint artifact written by a
// different codec version. Loaders treat it as a miss and re-walk.
var ErrEndpointsVersion = errors.New("bippr: endpoint artifact version mismatch")

// ErrEndpointsCorrupt reports an endpoint artifact that failed
// structural or checksum validation. Loaders treat it as a miss and
// re-walk.
var ErrEndpointsCorrupt = errors.New("bippr: endpoint artifact corrupt")

// EndpointArtifact couples a recorded endpoint set with the walk
// parameters it was recorded under — the codec's unit of persistence.
// The walk count lives in Set.Walks.
type EndpointArtifact struct {
	Source   graph.NodeID
	Alpha    float64
	Seed     int64
	MaxSteps int
	Set      *EndpointSet
}

// EncodeEndpoints serializes a recorded walk pass into the versioned
// binary artifact format above.
func EncodeEndpoints(a EndpointArtifact) ([]byte, error) {
	if a.Set == nil || a.Set.Walks <= 0 {
		return nil, fmt.Errorf("bippr: cannot encode empty endpoint set")
	}
	if len(a.Set.chunks) != numChunks(a.Set.Walks) {
		return nil, fmt.Errorf("bippr: endpoint set has %d chunks for %d walks, want %d",
			len(a.Set.chunks), a.Set.Walks, numChunks(a.Set.Walks))
	}
	buf := new(bytes.Buffer)
	buf.Write(endpointMagic[:])
	writeU16(buf, endpointCodecVersion)
	writeU32(buf, uint32(a.Source))
	writeU64(buf, math.Float64bits(a.Alpha))
	writeU64(buf, uint64(a.Seed))
	writeU64(buf, uint64(a.MaxSteps))
	writeU64(buf, uint64(a.Set.Walks))
	writeU64(buf, uint64(len(a.Set.chunks)))
	for _, chunk := range a.Set.chunks {
		writeUvarint(buf, uint64(len(chunk)))
		prev := graph.NodeID(-1)
		for _, e := range chunk {
			// Strictly increasing nodes: the gap is at least 1, so
			// store gap−1 (and the raw id for the first entry).
			writeUvarint(buf, uint64(uint32(e.Node-prev))-1)
			writeUvarint(buf, uint64(uint32(e.Count))-1)
			prev = e.Node
		}
	}
	writeU32(buf, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes(), nil
}

// DecodeEndpoints parses an artifact written by EncodeEndpoints,
// without bounding node ids (offline tools and tests that have no
// graph at hand).
func DecodeEndpoints(data []byte) (EndpointArtifact, error) {
	return DecodeEndpointsSized(data, -1)
}

// DecodeEndpointsSized is DecodeEndpoints with the node count of the
// graph the artifact is being loaded for: any recorded endpoint id at
// or past wantNodes rejects the artifact as corrupt, so a damaged or
// misplaced file can never index out of a weight vector's bounds.
// wantNodes < 0 skips the check. Structural damage yields
// ErrEndpointsCorrupt and a version change ErrEndpointsVersion, so
// callers can uniformly fall back to re-walking.
func DecodeEndpointsSized(data []byte, wantNodes int) (EndpointArtifact, error) {
	var a EndpointArtifact
	r := &byteReader{data: data}
	var magic [4]byte
	if err := r.read(magic[:]); err != nil || magic != endpointMagic {
		return a, fmt.Errorf("%w: bad magic", ErrEndpointsCorrupt)
	}
	version, err := r.u16()
	if err != nil {
		return a, fmt.Errorf("%w: truncated header", ErrEndpointsCorrupt)
	}
	if version != endpointCodecVersion {
		return a, fmt.Errorf("%w: file version %d, codec version %d",
			ErrEndpointsVersion, version, endpointCodecVersion)
	}
	// Validate the checksum before trusting any length fields.
	if len(data) < 8 {
		return a, fmt.Errorf("%w: truncated", ErrEndpointsCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return a, fmt.Errorf("%w: checksum mismatch", ErrEndpointsCorrupt)
	}
	r.limit = len(body)

	source, err1 := r.u32()
	alpha, err2 := r.u64()
	seed, err3 := r.u64()
	maxSteps, err4 := r.u64()
	walks, err5 := r.u64()
	chunks, err6 := r.u64()
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		return a, fmt.Errorf("%w: truncated header", ErrEndpointsCorrupt)
	}
	if walks == 0 || walks > MaxWalks {
		return a, fmt.Errorf("%w: implausible walk count %d", ErrEndpointsCorrupt, walks)
	}
	if maxSteps > 1<<32 {
		return a, fmt.Errorf("%w: implausible step cap %d", ErrEndpointsCorrupt, maxSteps)
	}
	if chunks != uint64(numChunks(int(walks))) {
		return a, fmt.Errorf("%w: %d chunks for %d walks, want %d",
			ErrEndpointsCorrupt, chunks, walks, numChunks(int(walks)))
	}
	// Every chunk costs at least its one-byte count, so a chunk table
	// the buffer cannot hold is rejected before allocating for it.
	if chunks > uint64(r.remaining()) {
		return a, fmt.Errorf("%w: %d chunks exceed remaining bytes", ErrEndpointsCorrupt, chunks)
	}
	a.Source = graph.NodeID(source)
	a.Alpha = math.Float64frombits(alpha)
	a.Seed = int64(seed)
	a.MaxSteps = int(maxSteps)
	set := &EndpointSet{Walks: int(walks), chunks: make([][]EndpointCount, chunks)}
	for c := range set.chunks {
		if set.chunks[c], err = decodeChunk(r, int(walks), c, wantNodes); err != nil {
			return a, err
		}
	}
	if r.pos != r.limit {
		return a, fmt.Errorf("%w: %d trailing bytes", ErrEndpointsCorrupt, r.limit-r.pos)
	}
	a.Set = set
	return a, nil
}

// decodeChunk parses one delta-varint chunk, re-accumulating the
// gap-minus-one deltas into the strictly increasing node sequence —
// which makes the ordering invariant free: any decoded sequence is
// strictly increasing by construction, and overflow past the graph or
// id-space bound is what rejects a garbled delta.
func decodeChunk(r *byteReader, walks, c, wantNodes int) ([]EndpointCount, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated chunk header", ErrEndpointsCorrupt)
	}
	// Each entry is at least two varint bytes, so a claimed count the
	// buffer cannot hold is rejected before allocating for it.
	if n > uint64(chunkCount(walks, c)) || n*2 > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: chunk %d claims %d endpoints", ErrEndpointsCorrupt, c, n)
	}
	chunk := make([]EndpointCount, n)
	var total int64
	node := int64(-1)
	for i := range chunk {
		delta, err1 := r.uvarint()
		count, err2 := r.uvarint()
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("%w: truncated chunk entries", ErrEndpointsCorrupt)
		}
		node += int64(delta) + 1
		limit := int64(graph.MaxNodeID) + 1
		if wantNodes >= 0 {
			limit = int64(wantNodes)
		}
		if delta > uint64(graph.MaxNodeID) || node >= limit {
			return nil, fmt.Errorf("%w: node %d outside [0,%d)", ErrEndpointsCorrupt, node, limit)
		}
		if count+1 > uint64(chunkCount(walks, c)) {
			return nil, fmt.Errorf("%w: chunk %d implausible count %d", ErrEndpointsCorrupt, c, count+1)
		}
		total += int64(count) + 1
		chunk[i] = EndpointCount{Node: graph.NodeID(node), Count: int32(count) + 1}
	}
	if total > int64(chunkCount(walks, c)) {
		return nil, fmt.Errorf("%w: chunk %d records %d endpoints for %d walks",
			ErrEndpointsCorrupt, c, total, chunkCount(walks, c))
	}
	return chunk, nil
}

// --- little-endian helpers over bytes.Buffer / []byte ---

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

func writeUvarint(buf *bytes.Buffer, x uint64) {
	var b [binary.MaxVarintLen64]byte
	buf.Write(b[:binary.PutUvarint(b[:], x)])
}

// byteReader is a bounds-checked cursor over the artifact bytes;
// limit excludes the checksum trailer once it has been validated.
type byteReader struct {
	data  []byte
	pos   int
	limit int
}

func (r *byteReader) remaining() int {
	limit := r.limit
	if limit == 0 {
		limit = len(r.data)
	}
	return limit - r.pos
}

func (r *byteReader) read(dst []byte) error {
	if r.remaining() < len(dst) {
		return fmt.Errorf("%w: short read", ErrIndexCorrupt)
	}
	copy(dst, r.data[r.pos:])
	r.pos += len(dst)
	return nil
}

func (r *byteReader) u8() (uint8, error) {
	var b [1]byte
	err := r.read(b[:])
	return b[0], err
}

func (r *byteReader) u16() (uint16, error) {
	var b [2]byte
	err := r.read(b[:])
	return binary.LittleEndian.Uint16(b[:]), err
}

func (r *byteReader) u32() (uint32, error) {
	var b [4]byte
	err := r.read(b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

func (r *byteReader) u64() (uint64, error) {
	var b [8]byte
	err := r.read(b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

// uvarint reads one unsigned varint without crossing the reader's
// limit; a truncated, over-long (>10 byte) or non-minimal (zero top
// group) encoding is an error, so every value has exactly one
// accepted spelling.
func (r *byteReader) uvarint() (uint64, error) {
	end := r.pos + r.remaining()
	x, n := binary.Uvarint(r.data[r.pos:end])
	if n <= 0 || (n > 1 && r.data[r.pos+n-1] == 0) {
		return 0, fmt.Errorf("%w: bad varint", ErrIndexCorrupt)
	}
	r.pos += n
	return x, nil
}
