package formats

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// ReadEdgeList parses the CSV edge-list format: one edge per line as
// "source,target" (comma, tab or whitespace separated). Node names may
// be arbitrary strings; purely numeric files produce graphs whose
// labels are the original numeric tokens. Lines that are empty or
// start with '#' or '%' are skipped. A leading "source,target" /
// "Source,Target" header row (the Gephi convention) is skipped too.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	b := graph.NewLabeledBuilder()
	lineNo := 0
	seenEdge := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := splitFields(line)
		// Gephi-style header row; extra columns (Weight, Type, ...) are
		// part of the convention, so any column count qualifies.
		if !seenEdge && len(fields) >= 2 && isHeaderToken(fields[0]) && isHeaderToken(fields[1]) {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("formats: edgelist line %d: want 2 fields, got %d (%q)", lineNo, len(fields), line)
		}
		// Extra columns (weights, edge types) are tolerated and ignored,
		// matching the demo's permissive upload path.
		b.AddLabeledEdge(fields[0], fields[1])
		seenEdge = true
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: edgelist: %w", err)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("formats: edgelist: %w", err)
	}
	return g, nil
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
