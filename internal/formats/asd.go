package formats

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// ReadASD parses the CycleRank project's ASD format: a header line
// "N M" (node count, edge count) followed by exactly M lines "src dst"
// of zero-based node ids. Comments ('#' or '%') and blank lines are
// permitted anywhere. The edge count must match exactly — ASD is the
// platform's internal interchange format and is validated strictly.
func ReadASD(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)

	var (
		b      *graph.Builder
		n, m   int64
		edges  int64
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := splitFields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("formats: asd line %d: want 2 fields, got %d (%q)", lineNo, len(fields), line)
		}
		a, err1 := strconv.ParseInt(fields[0], 10, 64)
		c, err2 := strconv.ParseInt(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("formats: asd line %d: non-integer field in %q", lineNo, line)
		}
		if b == nil {
			if a < 0 || c < 0 {
				return nil, fmt.Errorf("formats: asd line %d: negative header values", lineNo)
			}
			if a > graph.MaxNodeID {
				return nil, fmt.Errorf("formats: asd line %d: node count %d exceeds limit", lineNo, a)
			}
			n, m = a, c
			b = graph.NewBuilder(int(n))
			continue
		}
		if a < 0 || a >= n || c < 0 || c >= n {
			return nil, fmt.Errorf("formats: asd line %d: edge (%d,%d) out of range [0,%d)", lineNo, a, c, n)
		}
		b.AddEdge(graph.NodeID(a), graph.NodeID(c))
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: asd: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("formats: asd: missing header line")
	}
	if edges != m {
		return nil, fmt.Errorf("formats: asd: header declares %d edges, found %d", m, edges)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("formats: asd: %w", err)
	}
	return g, nil
}

// writeBufSize sizes the writers' buffers: a dataset file reaches the
// underlying writer in 64 KiB writes.
const writeBufSize = 64 << 10

// WriteASD encodes g in the ASD format. Labels are not representable
// in ASD; they are dropped.
func WriteASD(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, writeBufSize)
	line := make([]byte, 0, 24)
	pair := func(a, b int64) {
		line = strconv.AppendInt(line[:0], a, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, b, 10)
		line = append(line, '\n')
		bw.Write(line) // a write error sticks in bw and is returned by Flush
	}
	pair(int64(g.NumNodes()), g.NumEdges())
	g.Edges(func(u, v graph.NodeID) bool {
		pair(int64(u), int64(v))
		return true
	})
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("formats: asd: %w", err)
	}
	return nil
}
