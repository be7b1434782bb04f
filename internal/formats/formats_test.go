package formats

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := "a,b\nb,c\nc,a\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("N=%d M=%d, want 3/3", g.NumNodes(), g.NumEdges())
	}
	a, _ := g.NodeByLabel("a")
	b, _ := g.NodeByLabel("b")
	if !g.HasEdge(a, b) {
		t.Error("missing edge a->b")
	}
}

func TestReadEdgeListSeparators(t *testing.T) {
	for name, in := range map[string]string{
		"comma":      "x,y\ny,x\n",
		"tab":        "x\ty\ny\tx\n",
		"space":      "x y\ny x\n",
		"mixedspace": "x   y\ny x\n",
	} {
		t.Run(name, func(t *testing.T) {
			g, err := ReadEdgeList(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() != 2 {
				t.Errorf("M=%d, want 2", g.NumEdges())
			}
		})
	}
}

func TestReadEdgeListSkipsCommentsAndHeader(t *testing.T) {
	in := "# comment\nSource,Target\n% other comment\n\na,b\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("N=%d M=%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
	if _, ok := g.NodeByLabel("Source"); ok {
		t.Error("header row ingested as an edge")
	}
}

func TestReadEdgeListHeaderOnlyFirstRow(t *testing.T) {
	// "source,target" appearing after real edges is data, not a header.
	in := "a,b\nsource,target\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.NodeByLabel("source"); !ok {
		t.Error("post-data source/target row dropped")
	}
}

func TestReadEdgeListExtraColumnsTolerated(t *testing.T) {
	in := "a,b,3.5\nb,c,1.0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("M=%d, want 2", g.NumEdges())
	}
}

func TestReadEdgeListBadLine(t *testing.T) {
	_, err := ReadEdgeList(strings.NewReader("a,b\njustone\n"))
	if err == nil {
		t.Fatal("accepted one-field line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks line number: %v", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	in := "alpha,beta\nbeta,gamma\ngamma,alpha\nalpha,gamma\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLabeledGraph(g, g2) {
		t.Error("edgelist round-trip changed the graph")
	}
}

func TestWriteEdgeListRejectsComma(t *testing.T) {
	b := graph.NewLabeledBuilder()
	b.AddLabeledEdge("has,comma", "x")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(&bytes.Buffer{}, g); err == nil {
		t.Fatal("encoded label containing comma")
	}
}

func TestReadPajekBasic(t *testing.T) {
	in := `*Vertices 3
1 "Freddie Mercury"
2 "Queen (band)"
3 "Brian May"
*Arcs
1 2
2 1
2 3
`
	g, err := ReadPajek(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("N=%d M=%d, want 3/3", g.NumNodes(), g.NumEdges())
	}
	fm, ok := g.NodeByLabel("Freddie Mercury")
	if !ok {
		t.Fatal("quoted label not parsed")
	}
	q, _ := g.NodeByLabel("Queen (band)")
	if !g.HasEdge(fm, q) || !g.HasEdge(q, fm) {
		t.Error("arcs missing")
	}
}

func TestReadPajekEdgesSectionIsUndirected(t *testing.T) {
	in := "*Vertices 2\n*Edges\n1 2\n"
	g, err := ReadPajek(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("M=%d, want 2 (both directions)", g.NumEdges())
	}
}

func TestReadPajekDefaultLabels(t *testing.T) {
	in := "*Vertices 2\n*Arcs\n1 2\n"
	g, err := ReadPajek(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.NodeByLabel("1"); !ok {
		t.Error("default numeric label missing")
	}
}

func TestReadPajekErrors(t *testing.T) {
	cases := map[string]string{
		"no vertices":     "*Arcs\n1 2\n",
		"bad count":       "*Vertices x\n",
		"id out of range": "*Vertices 2\n*Arcs\n1 5\n",
		"vertex range":    "*Vertices 1\n5 \"x\"\n",
		"data no section": "1 2\n*Vertices 2\n",
		"unknown section": "*Vertices 1\n*Wat\n",
		"unsupported":     "*Vertices 1\n*Matrix\n",
		"unterminated":    "*Vertices 1\n1 \"open\n",
		"label ends CR":   "*Vertices 1\n1 \"cr\r\"\n",
		"non int arc":     "*Vertices 2\n*Arcs\na b\n",
		"short arc":       "*Vertices 2\n*Arcs\n1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadPajek(strings.NewReader(in)); err == nil {
				t.Errorf("accepted malformed input %q", in)
			}
		})
	}
}

func TestPajekRoundTrip(t *testing.T) {
	b := graph.NewLabeledBuilder()
	b.AddLabeledEdge("Pasta", "Italian cuisine")
	b.AddLabeledEdge("Italian cuisine", "Pasta")
	b.AddLabeledEdge("Pasta", "Flour")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePajek(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadPajek(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLabeledGraph(g, g2) {
		t.Error("pajek round-trip changed the graph")
	}
}

func TestWritePajekRejectsQuote(t *testing.T) {
	b := graph.NewLabeledBuilder()
	b.AddLabeledEdge(`has"quote`, "x")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePajek(&bytes.Buffer{}, g); err == nil {
		t.Fatal("encoded label containing quote")
	}
}

func TestReadASDBasic(t *testing.T) {
	in := "3 3\n0 1\n1 2\n2 0\n"
	g, err := ReadASD(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("N=%d M=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(2, 0) {
		t.Error("missing edge 2->0")
	}
}

func TestReadASDErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"count mismatch": "2 5\n0 1\n",
		"out of range":   "2 1\n0 7\n",
		"negative":       "2 1\n-1 0\n",
		"non integer":    "2 1\na b\n",
		"three fields":   "2 1\n0 1 9\n",
		"neg header":     "-2 1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadASD(strings.NewReader(in)); err == nil {
				t.Errorf("accepted malformed input %q", in)
			}
		})
	}
}

func TestASDRoundTrip(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{e(0, 1), e(1, 2), e(2, 3), e(3, 0), e(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteASD(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadASD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 4 || g2.NumEdges() != 5 {
		t.Fatalf("round trip N=%d M=%d", g2.NumNodes(), g2.NumEdges())
	}
	g.Edges(func(u, v graph.NodeID) bool {
		if !g2.HasEdge(u, v) {
			t.Errorf("round trip lost edge (%d,%d)", u, v)
		}
		return true
	})
}

// TestWritersMatchFmtRendering pins the asd writer's bytes: WriteASD
// writes exactly the "%d %d\n" lines a fmt rendering of the same graph
// gives, on a graph large enough to span several buffer flushes.
func TestWritersMatchFmtRendering(t *testing.T) {
	b := graph.NewLabeledBuilder()
	for i := 0; i < 20000; i++ {
		b.AddLabeledEdge(fmt.Sprintf("node %d", i), fmt.Sprintf("node %d", (i*7919)%20011))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var wantASD strings.Builder
	fmt.Fprintf(&wantASD, "%d %d\n", g.NumNodes(), g.NumEdges())
	g.Edges(func(u, v graph.NodeID) bool {
		fmt.Fprintf(&wantASD, "%d %d\n", u, v)
		return true
	})
	var gotASD bytes.Buffer
	if err := WriteASD(&gotASD, g); err != nil {
		t.Fatal(err)
	}
	if gotASD.String() != wantASD.String() {
		t.Error("WriteASD bytes differ from the fmt rendering")
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want Format
	}{
		{"pajek", "*Vertices 2\n*Arcs\n1 2\n", FormatPajek},
		{"pajek lower", "*vertices 2\n", FormatPajek},
		{"asd", "2 1\n0 1\n", FormatASD},
		{"edgelist labels", "a,b\nb,a\n", FormatEdgeList},
		{"edgelist numeric non-asd", "5 6\n6 7\n7 5\n", FormatEdgeList},
		{"edgelist with comments", "# hi\nx y\n", FormatEdgeList},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Detect([]byte(c.in))
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("Detect = %q, want %q", got, c.want)
			}
		})
	}
	if _, err := Detect([]byte("")); err == nil {
		t.Error("Detect accepted empty input")
	}
	if _, err := Detect([]byte("a b c d\n")); err == nil {
		t.Error("Detect accepted 4-field line")
	}
}

// TestDetectLongFirstLine: a first line over 1 MiB is sniffed like any
// other line, so a body that ?format=edgelist parses is detected as an
// edge list instead of refused as empty input.
func TestDetectLongFirstLine(t *testing.T) {
	label := strings.Repeat("x", 2<<20)
	in := []byte("# comment\n" + label + ",b\nb," + label + "\n")
	f, err := Detect(in)
	if err != nil || f != FormatEdgeList {
		t.Fatalf("Detect = %q, %v; want %q", f, err, FormatEdgeList)
	}
	g, err := Parse(in, f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("parsed N=%d M=%d, want 2, 2", g.NumNodes(), g.NumEdges())
	}
}

// TestReadEdgeListLineLimit: a line of maxLineBytes or more, its line
// break excluded, fails with bufio.ErrTooLong, with or without a line
// break after it, exactly as the scanner form did.
func TestReadEdgeListLineLimit(t *testing.T) {
	for _, n := range []int{maxLineBytes - 1, maxLineBytes} {
		for _, end := range []string{"\n", ""} {
			in := "x,y\na," + strings.Repeat("b", n-2) + end
			g, err := ReadEdgeList(strings.NewReader(in))
			if errors.Is(err, bufio.ErrTooLong) != (n >= maxLineBytes) {
				t.Fatalf("line of %d bytes: error %v", n, err)
			}
			want, wantErr := scannerReadEdgeList(strings.NewReader(in))
			sameParse(t, fmt.Sprintf("line of %d bytes", n), want, wantErr)(g, err)
		}
	}
}

func TestFromExtension(t *testing.T) {
	cases := map[string]Format{
		".csv": FormatEdgeList, "csv": FormatEdgeList, ".txt": FormatEdgeList,
		".net": FormatPajek, ".NET": FormatPajek,
		".asd": FormatASD,
		".xyz": Format(""),
	}
	for ext, want := range cases {
		if got := FromExtension(ext); got != want {
			t.Errorf("FromExtension(%q) = %q, want %q", ext, got, want)
		}
	}
}

func TestReadWriteDispatch(t *testing.T) {
	g, _ := graph.FromEdges(2, []graph.Edge{e(0, 1)})
	for _, f := range Formats() {
		var buf bytes.Buffer
		if err := Write(&buf, g, f); err != nil {
			t.Fatalf("Write %s: %v", f, err)
		}
		if _, err := Read(&buf, f); err != nil {
			t.Fatalf("Read %s: %v", f, err)
		}
	}
	if err := Write(&bytes.Buffer{}, g, Format("nope")); err == nil {
		t.Error("Write accepted unknown format")
	}
	if _, err := Read(strings.NewReader(""), Format("nope")); err == nil {
		t.Error("Read accepted unknown format")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, _ := graph.FromEdges(3, []graph.Edge{e(0, 1), e(1, 2), e(2, 0)})
	for _, ext := range []string{".csv", ".net", ".asd"} {
		path := filepath.Join(dir, "g"+ext)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("WriteFile %s: %v", ext, err)
		}
		g2, err := ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile %s: %v", ext, err)
		}
		if g2.NumEdges() != 3 {
			t.Errorf("%s: M=%d, want 3", ext, g2.NumEdges())
		}
	}
	if err := WriteFile(filepath.Join(dir, "g.bogus"), g); err == nil {
		t.Error("WriteFile accepted unknown extension")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("ReadFile on missing file succeeded")
	}
}

func TestReadFileSniffsUnknownExtension(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.dat")
	if err := os.WriteFile(path, []byte("*Vertices 2\n*Arcs\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Errorf("sniffed graph N=%d, want 2", g.NumNodes())
	}
}

// Property: for random graphs, ASD and Pajek round-trips preserve the
// edge set exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteASD(&buf, g); err != nil {
			return false
		}
		g2, err := ReadASD(&buf)
		if err != nil {
			return false
		}
		if g2.NumEdges() != g.NumEdges() || g2.NumNodes() != g.NumNodes() {
			return false
		}
		same := true
		g.Edges(func(u, v graph.NodeID) bool {
			if !g2.HasEdge(u, v) {
				same = false
				return false
			}
			return true
		})
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// e builds a keyed Edge literal (vet forbids unkeyed cross-package
// composite literals).
func e(u, v graph.NodeID) graph.Edge { return graph.Edge{From: u, To: v} }

// sameLabeledGraph reports whether two labeled graphs have identical
// label-level edge sets.
func sameLabeledGraph(a, b *graph.Graph) bool {
	if a.NumEdges() != b.NumEdges() {
		return false
	}
	same := true
	a.Edges(func(u, v graph.NodeID) bool {
		bu, ok1 := b.NodeByLabel(a.Label(u))
		bv, ok2 := b.NodeByLabel(a.Label(v))
		if !ok1 || !ok2 || !b.HasEdge(bu, bv) {
			same = false
			return false
		}
		return true
	})
	return same
}
