package formats

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// ReadPajek parses the Pajek .NET format:
//
//	*Vertices N
//	1 "Label one"
//	2 "Label two"
//	...
//	*Arcs
//	1 2
//	2 1
//
// Vertex ids are 1-based. Vertex declaration lines are optional; when
// absent, labels default to the decimal id. An *Edges section (if
// present) is treated as undirected and expands each line into both
// directions, per Pajek semantics. Coordinates and attributes after
// the label are ignored.
func ReadPajek(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)

	var (
		n       = -1
		labels  []string
		section = ""
		lineNo  = 0
		edges   []graph.Edge
	)

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if strings.HasPrefix(line, "*") {
			directive := strings.ToLower(strings.Fields(line)[0])
			switch directive {
			case "*vertices":
				fields := strings.Fields(line)
				if len(fields) < 2 {
					return nil, fmt.Errorf("formats: pajek line %d: *Vertices without count", lineNo)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 0 {
					return nil, fmt.Errorf("formats: pajek line %d: bad vertex count %q", lineNo, fields[1])
				}
				n = v
				labels = make([]string, n)
				for i := range labels {
					labels[i] = strconv.Itoa(i + 1)
				}
				section = "vertices"
			case "*arcs":
				section = "arcs"
			case "*edges":
				section = "edges"
			case "*arcslist", "*edgeslist", "*matrix":
				return nil, fmt.Errorf("formats: pajek line %d: unsupported section %s", lineNo, directive)
			default:
				return nil, fmt.Errorf("formats: pajek line %d: unknown directive %q", lineNo, directive)
			}
			continue
		}
		switch section {
		case "vertices":
			id, label, err := parsePajekVertex(line)
			if err != nil {
				return nil, fmt.Errorf("formats: pajek line %d: %w", lineNo, err)
			}
			if id < 1 || id > n {
				return nil, fmt.Errorf("formats: pajek line %d: vertex id %d out of range [1,%d]", lineNo, id, n)
			}
			labels[id-1] = label
		case "arcs", "edges":
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("formats: pajek line %d: want at least 2 fields, got %q", lineNo, line)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("formats: pajek line %d: non-integer endpoint in %q", lineNo, line)
			}
			if n < 0 {
				return nil, fmt.Errorf("formats: pajek line %d: %s before *Vertices", lineNo, section)
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("formats: pajek line %d: endpoint out of range [1,%d] in %q", lineNo, n, line)
			}
			edges = append(edges, graph.Edge{From: graph.NodeID(u - 1), To: graph.NodeID(v - 1)})
			if section == "edges" && u != v {
				edges = append(edges, graph.Edge{From: graph.NodeID(v - 1), To: graph.NodeID(u - 1)})
			}
		default:
			return nil, fmt.Errorf("formats: pajek line %d: data before any section: %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: pajek: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("formats: pajek: missing *Vertices section")
	}

	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("formats: pajek: %w", err)
	}
	// Deduplicate default labels against explicit ones if a vertex line
	// renamed a node to another node's default numeric label.
	lg, err := g.WithLabels(labels)
	if err != nil {
		return nil, fmt.Errorf("formats: pajek: %w", err)
	}
	return lg, nil
}

func parsePajekVertex(line string) (id int, label string, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return 0, "", fmt.Errorf("empty vertex line")
	}
	id, err = strconv.Atoi(fields[0])
	if err != nil {
		return 0, "", fmt.Errorf("bad vertex id %q", fields[0])
	}
	rest := strings.TrimSpace(line[len(fields[0]):])
	if rest == "" {
		return id, strconv.Itoa(id), nil
	}
	if strings.HasPrefix(rest, `"`) {
		end := strings.Index(rest[1:], `"`)
		if end < 0 {
			return 0, "", fmt.Errorf("unterminated quoted label in %q", line)
		}
		label = rest[1 : 1+end]
		if strings.HasSuffix(label, "\r") {
			// The label sidecar a stored dataset keeps its labels in
			// would read this back without the carriage return.
			return 0, "", fmt.Errorf("quoted label ends in a carriage return in %q", line)
		}
		return id, label, nil
	}
	return id, strings.Fields(rest)[0], nil
}

// WritePajek encodes g in the Pajek .NET format with quoted labels and
// a directed *Arcs section.
func WritePajek(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	n := g.NumNodes()
	if _, err := fmt.Fprintf(bw, "*Vertices %d\n", n); err != nil {
		return fmt.Errorf("formats: pajek: %w", err)
	}
	for v := 0; v < n; v++ {
		label := g.Label(graph.NodeID(v))
		if strings.ContainsRune(label, '"') {
			return fmt.Errorf("formats: pajek: label with quote cannot be encoded: %q", label)
		}
		if _, err := fmt.Fprintf(bw, "%d \"%s\"\n", v+1, label); err != nil {
			return fmt.Errorf("formats: pajek: %w", err)
		}
	}
	if _, err := fmt.Fprintln(bw, "*Arcs"); err != nil {
		return fmt.Errorf("formats: pajek: %w", err)
	}
	var writeErr error
	g.Edges(func(u, v graph.NodeID) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u+1, v+1); err != nil {
			writeErr = fmt.Errorf("formats: pajek: %w", err)
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}
