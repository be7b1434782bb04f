package formats

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// ReadEdgeList parses the CSV edge-list format: one edge per line as
// "source,target" (comma, tab or whitespace separated). Node names may
// be arbitrary strings; purely numeric files produce graphs whose
// labels are the original numeric tokens. Lines that are empty or
// start with '#' or '%' are skipped. A leading "source,target" /
// "Source,Target" header row (the Gephi convention) is skipped too.
// A line of maxLineBytes or more fails with bufio.ErrTooLong.
//
// ReadEdgeList reads r whole and parses it as Parse does.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("formats: edgelist: %w", err)
	}
	return parseEdgeList(buf.Bytes())
}

// maxLineBytes bounds an edge-list line, its line break excluded.
const maxLineBytes = 16 << 20

// parseEdgeList parses an edge list in place: a line costs no
// allocation, and a label is copied only the first time it is seen.
// FuzzReadEdgeList holds it to the bufio.Scanner reader it replaced.
func parseEdgeList(data []byte) (*graph.Graph, error) {
	b := graph.NewLabeledBuilder()
	lineNo := 0
	seenEdge := false
	var fields [][]byte
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		lineNo++
		if len(line) >= maxLineBytes {
			return nil, fmt.Errorf("formats: edgelist: %w", bufio.ErrTooLong)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields = splitFieldsBytes(fields, line)
		// Gephi-style header row; extra columns (Weight, Type, ...) are
		// part of the convention, so any column count qualifies.
		if !seenEdge && len(fields) >= 2 && isHeaderToken(string(fields[0])) && isHeaderToken(string(fields[1])) {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("formats: edgelist line %d: want 2 fields, got %d (%q)", lineNo, len(fields), line)
		}
		// Extra columns (weights, edge types) are tolerated and ignored,
		// matching the demo's permissive upload path.
		b.AddLabeledEdgeBytes(fields[0], fields[1])
		seenEdge = true
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("formats: edgelist: %w", err)
	}
	return g, nil
}

// splitFieldsBytes is splitFields over bytes: it splits on commas if
// the line has one, else on tabs, else on whitespace, trims every field
// and drops the empty ones. The fields alias line and are appended to
// dst[:0], so a caller that passes the previous result back allocates
// nothing once dst has grown. FuzzReadEdgeList holds it to splitFields.
func splitFieldsBytes(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	sep := byte(',')
	if bytes.IndexByte(line, sep) < 0 {
		sep = '\t'
		if bytes.IndexByte(line, sep) < 0 {
			return appendFields(dst, line)
		}
	}
	for {
		i := bytes.IndexByte(line, sep)
		if i < 0 {
			i = len(line)
		}
		if f := bytes.TrimSpace(line[:i]); len(f) > 0 {
			dst = append(dst, f)
		}
		if i == len(line) {
			return dst
		}
		line = line[i+1:]
	}
}

// appendFields appends the runs of s between Unicode white space, the
// fields strings.Fields returns, to dst.
func appendFields(dst [][]byte, s []byte) [][]byte {
	start := -1
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(s[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

func isHeaderToken(s string) bool {
	switch strings.ToLower(s) {
	case "source", "target", "src", "dst", "from", "to":
		return true
	}
	return false
}

// WriteEdgeList encodes g as a CSV edge list, one "source,target" line
// per edge in canonical order. Labels containing commas are rejected
// since the format cannot represent them.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	var encodeErr error
	g.Edges(func(u, v graph.NodeID) bool {
		lu, lv := g.Label(u), g.Label(v)
		if strings.ContainsRune(lu, ',') || strings.ContainsRune(lv, ',') {
			encodeErr = fmt.Errorf("formats: edgelist: label with comma cannot be encoded: %q -> %q", lu, lv)
			return false
		}
		if _, err := fmt.Fprintf(bw, "%s,%s\n", lu, lv); err != nil {
			encodeErr = fmt.Errorf("formats: edgelist: %w", err)
			return false
		}
		return true
	})
	if encodeErr != nil {
		return encodeErr
	}
	return bw.Flush()
}
