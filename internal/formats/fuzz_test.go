package formats

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets double as robustness unit tests: `go test` runs the
// seed corpus; `go test -fuzz=FuzzX` explores further. The invariant
// under test is "never panic, and anything successfully parsed
// round-trips through its writer".

func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"a,b\n", "a,b\nb,a\n", "source,target\nx,y\n",
		"# comment\n\n a , b \n", "a\tb\n", "a b c d\n", ",,,\n", "ü,é\n",
		"a\u0085b c\n", " x\t,\ty \r\n", "\xff \xfe\xc2\n", "a\t\tb\t \n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// The parser splits its lines in place; it must split every line
		// exactly as splitFields, which ASD, Pajek and Detect still use.
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

		g, err := ReadEdgeList(strings.NewReader(in))
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
	f.Add("*Vertices 2\n")
	f.Add("2 1\n0 1\n")
	f.Add("a,b\n")
	f.Add("")
	f.Add("\x00\x01\x02")
	f.Fuzz(func(t *testing.T, in string) {
		// Detect must never panic and, when it claims a format, the
		// corresponding reader must not panic either (errors are fine).
		format, err := Detect([]byte(in))
		if err != nil {
			return
		}
		_, _ = Read(strings.NewReader(in), format)
	})
}
