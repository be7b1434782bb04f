package formats

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// Fuzz targets double as robustness unit tests: `go test` runs the
// seed corpus; `go test -fuzz=FuzzX` explores further. The invariant
// under test is "never panic, and anything successfully parsed
// round-trips through its writer".

func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"a,b\n", "a,b\nb,a\n", "source,target\nx,y\n",
		"# comment\n\n a , b \n", "a\tb\n", "a b c d\n", ",,,\n", "ü,é\n",
		"a\u0085b c\n", " x\t,\ty \r\n", "\xff \xfe\xc2\n", "a\t\tb\t \n",
		// A header-like row after an edge (an edge) and after only
		// comments (skipped); CRLF; no trailing newline; blank runs; a
		// long label; a bad line after edges, and two bad lines.
		"a,b\nsource,target\nc,d\n", "# c\n% c\nsource,target\nFrom,To\nx,y\nsrc,dst\n",
		"a,b\r\nb,c\r\nsource,target\r\nc,a\r\n", "a,b\nb,c\nc,a",
		"\n\n\na,b\n\n", "a-very-long-label-that-outspans-every-cut,b\n",
		"a,b\nb,c\nnope\nc,d\n", "a,b\nbad\nc,d\nworse\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// The parser splits its lines in place; it must split every line
		// exactly as splitFields, which ASD still uses.
		var fields [][]byte
		for _, line := range strings.Split(in, "\n") {
			for _, s := range []string{line, strings.TrimSpace(line)} {
				want := splitFields(s)
				fields = splitFieldsBytes(fields, []byte(s))
				if len(fields) != len(want) {
					t.Fatalf("line %q: %d fields in place, splitFields gives %d %q", s, len(fields), len(want), want)
				}
				for i := range want {
					if string(fields[i]) != want[i] {
						t.Fatalf("line %q: field %d is %q in place, splitFields gives %q", s, i, fields[i], want[i])
					}
				}
			}
		}

		// The in-place parse is the scanner parse.
		g, err := parseEdgeList([]byte(in))
		sameParse(t, "in place vs scanner", g, err)(scannerReadEdgeList(strings.NewReader(in)))

		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return // labels may contain commas; the writer must refuse, not panic
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read of own output failed: %v\noutput: %q", err, buf.String())
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count %d -> %d", g.NumEdges(), g2.NumEdges())
		}
	})
}

// sameParse returns a check that a parse gave the same error string as
// want, or the same labels in order and the same Fingerprint.
func sameParse(t *testing.T, what string, want *graph.Graph, wantErr error) func(*graph.Graph, error) {
	return func(got *graph.Graph, err error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", what, err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(got.Labels().Names(), want.Labels().Names()) || graph.Fingerprint(got) != graph.Fingerprint(want) {
			t.Fatalf("%s: labels %q fp %s, want %q fp %s", what,
				got.Labels().Names(), graph.Fingerprint(got), want.Labels().Names(), graph.Fingerprint(want))
		}
	}
}

// scannerReadEdgeList is the bufio.Scanner edge-list reader the in-place
// parser replaced, kept as its oracle: every line is scanned, split and
// interned in order on one goroutine.
func scannerReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	b := graph.NewLabeledBuilder()
	lineNo := 0
	seenEdge := false
	var fields [][]byte
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields = splitFieldsBytes(fields, line)
		if !seenEdge && len(fields) >= 2 && isHeaderToken(string(fields[0])) && isHeaderToken(string(fields[1])) {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("formats: edgelist line %d: want 2 fields, got %d (%q)", lineNo, len(fields), line)
		}
		b.AddLabeledEdgeBytes(fields[0], fields[1])
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

func FuzzReadPajek(f *testing.F) {
	for _, seed := range []string{
		"*Vertices 2\n1 \"a\"\n2 \"b\"\n*Arcs\n1 2\n",
		"*Vertices 1\n*Edges\n1 1\n",
		"*Vertices 0\n", "*vertices 3\n*arcs\n1 3\n3 1\n",
		"*Vertices x\n", "1 2\n", "*Vertices 2\n1 \"unterminated\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadPajek(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePajek(&buf, g); err != nil {
			return // quote-containing labels are refused by the writer
		}
		g2, err := ReadPajek(&buf)
		if err != nil {
			t.Fatalf("re-read of own output failed: %v\noutput: %q", err, buf.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape %d/%d -> %d/%d",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
	})
}

func FuzzReadASD(f *testing.F) {
	for _, seed := range []string{
		"2 1\n0 1\n", "0 0\n", "3 3\n0 1\n1 2\n2 0\n",
		"2 5\n0 1\n", "-1 2\n", "a b\n", "2 1\n0 1\n# trailing\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadASD(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteASD(&buf, g); err != nil {
			t.Fatalf("writing parsed graph failed: %v", err)
		}
		g2, err := ReadASD(&buf)
		if err != nil {
			t.Fatalf("re-read of own output failed: %v\noutput: %q", err, buf.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape")
		}
	})
}

func FuzzDetect(f *testing.F) {
	for _, seed := range []string{
		"*Vertices 2\n", "2 1\n0 1\n", "a,b\n", "", "\x00\x01\x02",
		"# c\n\n  3 2 \r\n0 1\n% c\n1 2\n", "3 2\n0 1\n1 9\n", "*VERTICES 3",
		"*verticeſ 2\n", "*vert\u0130ces 2\n", "\u212a,b\n", "  \n\t\n", "a b c\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// Detect must never panic and, when it claims a format, the
		// corresponding reader must not panic either (errors are fine).
		format, err := Detect([]byte(in))
		// Below the scanner's 1 MiB line limit, sniffing in place agrees
		// with the scanner form it replaced.
		if len(in) < 1<<20 {
			wantFormat, wantErr := scannerDetect([]byte(in))
			if format != wantFormat || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("Detect = %q, %v; scanner form gives %q, %v", format, err, wantFormat, wantErr)
			}
		}
		if err != nil {
			return
		}
		_, _ = Read(strings.NewReader(in), format)
	})
}

// scannerDetect is the bufio.Scanner form of Detect, kept as its
// oracle: it copies the input and reads it through 1 MiB-bounded
// scanners, so it fails on a longer first line.
func scannerDetect(data []byte) (Format, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var first string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		first = line
		break
	}
	if first == "" {
		return "", fmt.Errorf("%w: empty input", ErrUnknownFormat)
	}
	if strings.HasPrefix(strings.ToLower(first), "*vertices") {
		return FormatPajek, nil
	}
	fields := splitFields(first)
	if len(fields) == 2 && isUint([]byte(fields[0])) && isUint([]byte(fields[1])) {
		if scannerLooksLikeASD(data) {
			return FormatASD, nil
		}
		return FormatEdgeList, nil
	}
	if len(fields) == 2 {
		return FormatEdgeList, nil
	}
	return "", fmt.Errorf("%w: unrecognized first line %q", ErrUnknownFormat, first)
}

func scannerLooksLikeASD(data []byte) bool {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	header := false
	var n, m uint64
	var edges uint64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := splitFields(line)
		if len(fields) != 2 || !isUint([]byte(fields[0])) || !isUint([]byte(fields[1])) {
			return false
		}
		a, b := parseUint([]byte(fields[0])), parseUint([]byte(fields[1]))
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
