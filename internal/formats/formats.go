// Package formats reads and writes the three graph file formats the
// demo platform supports for dataset upload:
//
//   - edgelist: comma/whitespace-separated "source,target" pairs, one
//     edge per line (the Gephi CSV edge-list convention);
//   - pajek: the Pajek .NET format, "*Vertices n" followed by vertex
//     declarations and an "*Arcs" (directed) section;
//   - asd: the CycleRank project's own compact format — a header line
//     "N M" followed by M lines "src dst" of zero-based integer ids.
//
// Each format has a Reader returning *graph.Graph and a Writer; Parse
// reads content already in memory, and Detect sniffs the format from
// it. All readers report errors with 1-based line numbers.
//
// Invariants:
//
//   - Readers produce canonical graphs: construction goes through
//     graph.Builder, so duplicate edges and out-of-order input
//     collapse to the same Graph regardless of source format.
//   - Write∘Read is lossless for structure and labels (round-trip
//     tested per format); asd preserves structure only.
//   - Malformed input fails with an error naming the 1-based line,
//     never a panic (fuzz tested across all three formats).
//   - Gzip is transparent at the file layer: ReadFile decompresses
//     "*.gz" and dispatches on the inner extension.
package formats

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// Format identifies a supported graph file format.
type Format string

// Supported formats.
const (
	FormatEdgeList Format = "edgelist"
	FormatPajek    Format = "pajek"
	FormatASD      Format = "asd"
)

// ErrUnknownFormat is returned when sniffing or parsing cannot
// determine a file's format.
var ErrUnknownFormat = errors.New("formats: unknown graph format")

// Formats returns all supported formats in stable order.
func Formats() []Format {
	return []Format{FormatEdgeList, FormatPajek, FormatASD}
}

// Valid reports whether f names a supported format.
func (f Format) Valid() bool {
	switch f {
	case FormatEdgeList, FormatPajek, FormatASD:
		return true
	}
	return false
}

// Extension returns the conventional file extension for f, including
// the dot.
func (f Format) Extension() string {
	switch f {
	case FormatEdgeList:
		return ".csv"
	case FormatPajek:
		return ".net"
	case FormatASD:
		return ".asd"
	}
	return ""
}

// Parse parses a graph held in memory in the given format. An edge
// list is parsed in place (see ReadEdgeList).
func Parse(data []byte, f Format) (*graph.Graph, error) {
	if f == FormatEdgeList {
		return parseEdgeList(data)
	}
	return Read(bytes.NewReader(data), f)
}

// Read parses a graph in the given format.
func Read(r io.Reader, f Format) (*graph.Graph, error) {
	switch f {
	case FormatEdgeList:
		return ReadEdgeList(r)
	case FormatPajek:
		return ReadPajek(r)
	case FormatASD:
		return ReadASD(r)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownFormat, f)
}

// Write encodes a graph in the given format.
func Write(w io.Writer, g *graph.Graph, f Format) error {
	switch f {
	case FormatEdgeList:
		return WriteEdgeList(w, g)
	case FormatPajek:
		return WritePajek(w, g)
	case FormatASD:
		return WriteASD(w, g)
	}
	return fmt.Errorf("%w: %q", ErrUnknownFormat, f)
}

// ReadFile loads a graph from disk, inferring the format from the file
// extension and falling back to content sniffing. Files ending in .gz
// are transparently decompressed (e.g. "edges.csv.gz").
func ReadFile(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("formats: %w", err)
	}
	ext := filepath.Ext(path)
	if strings.EqualFold(ext, ".gz") {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("formats: %s: %w", path, err)
		}
		data, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("formats: %s: %w", path, err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("formats: %s: %w", path, err)
		}
		ext = filepath.Ext(strings.TrimSuffix(path, filepath.Ext(path)))
	}
	f := FromExtension(ext)
	if !f.Valid() {
		f, err = Detect(data)
		if err != nil {
			return nil, fmt.Errorf("formats: %s: %w", path, err)
		}
	}
	g, err := Parse(data, f)
	if err != nil {
		return nil, fmt.Errorf("formats: %s: %w", path, err)
	}
	return g, nil
}

// WriteFile stores a graph to disk in the format implied by the file
// extension.
func WriteFile(path string, g *graph.Graph) error {
	f := FromExtension(filepath.Ext(path))
	if !f.Valid() {
		return fmt.Errorf("%w: extension %q", ErrUnknownFormat, filepath.Ext(path))
	}
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("formats: %w", err)
	}
	// Every writer buffers and flushes on its own.
	if err := Write(file, g, f); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// FromExtension maps a file extension (with or without the leading
// dot) to a Format; the zero Format is returned for unknown
// extensions.
func FromExtension(ext string) Format {
	switch strings.ToLower(strings.TrimPrefix(ext, ".")) {
	case "csv", "edgelist", "edges", "txt":
		return FormatEdgeList
	case "net", "pajek":
		return FormatPajek
	case "asd":
		return FormatASD
	}
	return Format("")
}

// Detect sniffs the format of graph file content from its first line
// that is neither blank nor a comment, read in place. Pajek files
// start with a "*Vertices" directive; ASD files start with a bare
// "N M" integer pair followed by integer edges; anything else that
// parses as delimiter-separated pairs is an edge list.
func Detect(data []byte) (Format, error) {
	first, _ := nextContentLine(data)
	if first == nil {
		return "", fmt.Errorf("%w: empty input", ErrUnknownFormat)
	}
	// The nine runes "*vertices" can lower from span at most 36 bytes,
	// so only those are lowered, not the whole of a long line.
	if strings.HasPrefix(strings.ToLower(string(first[:min(len(first), 36)])), "*vertices") {
		return FormatPajek, nil
	}
	fields := splitFieldsBytes(nil, first)
	if len(fields) == 2 && isUint(fields[0]) && isUint(fields[1]) {
		// Both "N M" headers and "src dst" edge lines look like two
		// integers. Disambiguate: an ASD header is followed by edges
		// whose ids are < N; treat a two-integer first line as ASD only
		// when the declared M matches the number of remaining lines.
		if looksLikeASD(data) {
			return FormatASD, nil
		}
		return FormatEdgeList, nil
	}
	if len(fields) == 2 {
		return FormatEdgeList, nil
	}
	return "", fmt.Errorf("%w: unrecognized first line %q", ErrUnknownFormat, first)
}

// nextContentLine returns data's first line that is neither blank nor a
// comment, trimmed, and the data after it; line is nil when there is
// none.
func nextContentLine(data []byte) (line, rest []byte) {
	for len(data) > 0 {
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) > 0 && line[0] != '#' && line[0] != '%' {
			return line, data
		}
	}
	return nil, nil
}

func looksLikeASD(data []byte) bool {
	header := false
	var n, m uint64
	var edges uint64
	var fields [][]byte
	for line, rest := nextContentLine(data); line != nil; line, rest = nextContentLine(rest) {
		fields = splitFieldsBytes(fields, line)
		if len(fields) != 2 || !isUint(fields[0]) || !isUint(fields[1]) {
			return false
		}
		a, b := parseUint(fields[0]), parseUint(fields[1])
		if !header {
			header = true
			n, m = a, b
			continue
		}
		if a >= n || b >= n {
			return false
		}
		edges++
	}
	return header && edges == m
}

func splitFields(line string) []string {
	if strings.ContainsRune(line, ',') {
		parts := strings.Split(line, ",")
		out := parts[:0]
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	if strings.ContainsRune(line, '\t') {
		parts := strings.Split(line, "\t")
		out := parts[:0]
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	return strings.Fields(line)
}

func isUint(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func parseUint(s []byte) uint64 {
	var v uint64
	for _, c := range s {
		v = v*10 + uint64(c-'0')
	}
	return v
}
