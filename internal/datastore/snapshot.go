package datastore

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// On-disk dataset snapshot format (little endian), one file per
// dataset:
//
//	magic   [4]byte   "CRSN"
//	version uint16    snapshotVersion
//	fp      [16]byte  graph.Fingerprint of the graph, as raw bytes
//	n       uint64    nodes
//	m       uint64    distinct edges
//	per node v in id order:
//	  deg   uvarint   out-degree of v
//	  deg × uvarint   targets: the first as its id, every later one as
//	                  its gap (≥ 1) from the previous target
//	labels  uvarint   0 (unlabeled) or n
//	labels × (len uvarint, len bytes)  the label of each node in id order
//	crc32   uint32    IEEE checksum of everything above
//
// The header carries the fingerprint so the store can refcount the
// artifact trees a dataset's graph hashed to by reading 22 bytes,
// never the graph. Labels are length-prefixed, so any byte string a
// label table holds — line breaks included — round-trips.
//
// Decoding trusts nothing: the checksum is checked before any length
// field, every count is bounded by the bytes left to hold it, a row
// must be strictly ascending and inside [0, n), and the decoded CSR
// must hash to the header's fingerprint. A snapshot that decodes is
// therefore the graph that was saved, and re-encodes to the same
// bytes.

// snapshotVersion is bumped whenever the layout above changes;
// decoding any other version fails with ErrSnapshotVersion.
const snapshotVersion uint16 = 1

var snapshotMagic = [4]byte{'C', 'R', 'S', 'N'}

// snapshotHeaderLen is the prefix a fingerprint read needs: magic,
// version and fingerprint.
const snapshotHeaderLen = 4 + 2 + 16

// snapshotExt is the extension of a dataset snapshot under datasets/.
const snapshotExt = ".snap"

// ErrSnapshotVersion reports a dataset snapshot written by a different
// codec version.
var ErrSnapshotVersion = errors.New("datastore: dataset snapshot version mismatch")

// ErrSnapshotCorrupt reports a dataset snapshot that failed structural,
// checksum or fingerprint validation.
var ErrSnapshotCorrupt = errors.New("datastore: dataset snapshot corrupt")

// encodeSnapshot serializes g into the snapshot format above.
func encodeSnapshot(g *graph.Graph) []byte {
	fp, err := hex.DecodeString(graph.Fingerprint(g))
	if err != nil || len(fp) != 16 {
		panic("datastore: graph.Fingerprint is not 16 hex-encoded bytes")
	}
	n := g.NumNodes()
	// One byte per degree and per target covers the common case; the
	// slice grows past it for wide ids.
	buf := make([]byte, 0, snapshotHeaderLen+16+n+2*int(g.NumEdges())+8)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotVersion)
	buf = append(buf, fp...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumEdges()))
	for v := 0; v < n; v++ {
		row := g.Out(graph.NodeID(v))
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		prev := graph.NodeID(0)
		for _, w := range row {
			buf = binary.AppendUvarint(buf, uint64(w-prev))
			prev = w
		}
	}
	lt := g.Labels()
	buf = binary.AppendUvarint(buf, uint64(lt.Len()))
	for v := 0; v < lt.Len(); v++ {
		name := lt.Name(graph.NodeID(v))
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// snapshotFingerprint returns the fingerprint in a snapshot's header
// without validating the rest of the file.
func snapshotFingerprint(header []byte) (string, error) {
	if len(header) < snapshotHeaderLen || [4]byte(header[:4]) != snapshotMagic {
		return "", fmt.Errorf("%w: bad header", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint16(header[4:]); v != snapshotVersion {
		return "", fmt.Errorf("%w: file version %d, codec version %d", ErrSnapshotVersion, v, snapshotVersion)
	}
	return hex.EncodeToString(header[6:snapshotHeaderLen]), nil
}

// checkSnapshotFrame validates a snapshot's header and checksum and
// returns its body (the bytes between the header's fingerprint and the
// checksum trailer) and the header fingerprint.
func checkSnapshotFrame(data []byte) (body []byte, fp string, err error) {
	if fp, err = snapshotFingerprint(data); err != nil {
		return nil, "", err
	}
	if len(data) < snapshotHeaderLen+4 {
		return nil, "", fmt.Errorf("%w: truncated", ErrSnapshotCorrupt)
	}
	end := len(data) - 4
	if crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, "", fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	return data[snapshotHeaderLen:end], fp, nil
}

// decodeSnapshot parses a snapshot written by encodeSnapshot. Any
// damage yields an error wrapping ErrSnapshotCorrupt, and a version
// change one wrapping ErrSnapshotVersion. The graph is built through
// graph.Builder, like every other reader's.
func decodeSnapshot(data []byte) (*graph.Graph, error) {
	body, fp, err := checkSnapshotFrame(data)
	if err != nil {
		return nil, err
	}
	r := snapReader{data: body}
	n, m := r.u64(), r.u64()
	if r.err != nil {
		return nil, r.err
	}
	// Every node costs at least its degree byte and every edge its
	// target byte, so counts the body cannot hold are refused before
	// anything is sized by them.
	if n > uint64(len(r.data)) || m > uint64(len(r.data))-n {
		return nil, fmt.Errorf("%w: %d nodes and %d edges exceed %d bytes", ErrSnapshotCorrupt, n, m, len(r.data))
	}
	b := graph.NewBuilder(int(n))
	var edges uint64
	for v := uint64(0); v < n; v++ {
		deg := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if deg > m-edges {
			return nil, fmt.Errorf("%w: node %d: out-degree %d past the %d edges declared", ErrSnapshotCorrupt, v, deg, m)
		}
		edges += deg
		var w uint64
		for i := uint64(0); i < deg; i++ {
			gap := r.uvarint()
			switch {
			case r.err != nil:
				return nil, r.err
			case i > 0 && gap == 0:
				return nil, fmt.Errorf("%w: node %d: row not strictly ascending", ErrSnapshotCorrupt, v)
			case gap >= n || w+gap >= n:
				return nil, fmt.Errorf("%w: node %d: target outside [0,%d)", ErrSnapshotCorrupt, v, n)
			}
			w += gap
			b.AddEdge(graph.NodeID(v), graph.NodeID(w))
		}
	}
	if edges != m {
		return nil, fmt.Errorf("%w: rows hold %d edges, header declares %d", ErrSnapshotCorrupt, edges, m)
	}
	var names []string
	switch count := r.uvarint(); {
	case r.err != nil:
		return nil, r.err
	case count == n && n > 0:
		names = make([]string, n)
		for i := range names {
			names[i] = string(r.bytes(r.uvarint()))
		}
		if r.err != nil {
			return nil, r.err
		}
	case count != 0:
		return nil, fmt.Errorf("%w: %d labels for %d nodes", ErrSnapshotCorrupt, count, n)
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(r.data))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if graph.Fingerprint(g) != fp {
		return nil, fmt.Errorf("%w: graph does not match the header fingerprint", ErrSnapshotCorrupt)
	}
	if names != nil {
		if g, err = g.WithLabels(names); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
	}
	return g, nil
}

// snapReader is a bounds-checked cursor over a snapshot body. The
// first failed read sticks in err, and every later read returns zero.
type snapReader struct {
	data []byte
	err  error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrSnapshotCorrupt, what)
	}
	r.data = nil
}

func (r *snapReader) u64() uint64 {
	if len(r.data) < 8 {
		r.fail("truncated header")
		return 0
	}
	x := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return x
}

// uvarint reads one unsigned varint; a truncated, over-long or
// non-minimal (zero top group) encoding is an error, so every value
// has exactly one accepted spelling.
func (r *snapReader) uvarint() uint64 {
	x, k := binary.Uvarint(r.data)
	if k <= 0 || (k > 1 && r.data[k-1] == 0) {
		r.fail("bad varint")
		return 0
	}
	r.data = r.data[k:]
	return x
}

func (r *snapReader) bytes(size uint64) []byte {
	if size > uint64(len(r.data)) {
		r.fail("truncated label")
		return nil
	}
	out := r.data[:size]
	r.data = r.data[size:]
	return out
}
