package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// referenceBuild is the comparison-sort construction Build replaced: sort
// a copy of every edge by (from, to), collapse duplicates, and lay the
// CSR out from the sorted list, with the layout sorted by reflection.
// It stays as the oracle the counting-sort build must match bit for bit.
func referenceBuild(b *Builder) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	edges = dedup
	m := int64(len(edges))
	g := &Graph{
		outOff:   make([]int64, n+1),
		outAdj:   make([]NodeID, m),
		inOff:    make([]int64, n+1),
		inAdj:    make([]NodeID, m),
		numEdges: m,
	}
	for i, e := range edges {
		g.outOff[e.From+1]++
		g.inOff[e.To+1]++
		g.outAdj[i] = e.To
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	next := append([]int64(nil), g.inOff[:n]...)
	for _, e := range edges {
		g.inAdj[next[e.To]] = e.From
		next[e.To]++
	}
	if b.labeled {
		lt, err := NewLabelTable(b.names)
		if err != nil {
			return nil, err
		}
		g.labels = lt
	}
	// The views are promised as Build promises them; their contents
	// are compared separately, against referenceLayout and a plain
	// packing of the out-CSR.
	g.layout = new(view[Layout])
	if n > 0 && sampleTableFits(g.outOff) {
		g.sample = new(view[SampleTable])
	}
	return g, nil
}

// referenceLayout is buildLayout as it was before the slices rewrite.
func referenceLayout(g *Graph) *Layout {
	n := g.NumNodes()
	l := &Layout{
		perm:   make([]NodeID, n),
		inv:    make([]NodeID, n),
		inOff:  make([]int64, n+1),
		inAdj:  make([]NodeID, len(g.inAdj)),
		outDeg: make([]int32, n),
		recip:  make([]float64, n),
	}
	for v := range l.inv {
		l.inv[v] = NodeID(v)
	}
	degree := func(v NodeID) int64 {
		return (g.outOff[v+1] - g.outOff[v]) + (g.inOff[v+1] - g.inOff[v])
	}
	sort.SliceStable(l.inv, func(i, j int) bool {
		di, dj := degree(l.inv[i]), degree(l.inv[j])
		if di != dj {
			return di > dj
		}
		return l.inv[i] < l.inv[j]
	})
	for nw, old := range l.inv {
		l.perm[old] = NodeID(nw)
	}
	for nw := 0; nw < n; nw++ {
		old := l.inv[nw]
		row := g.In(old)
		l.inOff[nw+1] = l.inOff[nw] + int64(len(row))
		dst := l.inAdj[l.inOff[nw]:l.inOff[nw+1]]
		for i, u := range row {
			dst[i] = l.perm[u]
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
		deg := g.outOff[old+1] - g.outOff[old]
		l.outDeg[nw] = int32(deg)
		if deg > 0 {
			l.recip[nw] = 1 / float64(deg)
		}
	}
	return l
}

// randomMultiset draws m edges over n nodes, biased toward duplicates
// and self-loops; with m small against n, many nodes stay isolated.
func randomMultiset(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		switch r := rng.Intn(10); {
		case r == 0 && len(edges) > 0:
			edges = append(edges, edges[rng.Intn(len(edges))]) // duplicate
		case r == 1:
			v := NodeID(rng.Intn(n))
			edges = append(edges, Edge{v, v}) // self-loop
		default:
			edges = append(edges, Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))})
		}
	}
	return edges
}

// TestBuildMatchesReference: on random edge multisets, indexed and
// labeled, Build produces exactly the graph the comparison-sort
// construction does — CSR, layout, sample table, labels and Fingerprint
// — and leaves the builder's edges untouched.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{0, 0}, {1, 0}, {1, 1}, {1, 5}, {2, 7}, {5, 3}, {40, 10}, {40, 400}, {300, 2000}}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(200), rng.Intn(1500)})
	}
	for i, shape := range shapes {
		n, m := shape[0], shape[1]
		var edges []Edge
		if n > 0 {
			edges = randomMultiset(rng, n, m)
		}

		indexed := NewBuilder(n)
		labeled := NewLabeledBuilder()
		viaBytes := NewLabeledBuilder()
		for _, e := range edges {
			indexed.AddEdge(e.From, e.To)
			from, to := "n"+strconv.Itoa(int(e.From)), "n"+strconv.Itoa(int(e.To))
			labeled.AddLabeledEdge(from, to)
			viaBytes.AddLabeledEdgeBytes([]byte(from), []byte(to))
		}
		if !reflect.DeepEqual(labeled, viaBytes) {
			t.Fatalf("shape %d: AddLabeledEdgeBytes interned differently from AddLabeledEdge", i)
		}
		for name, b := range map[string]*Builder{"indexed": indexed, "labeled": labeled} {
			before := slices.Clone(b.edges)
			got, err := b.Build()
			if err != nil {
				t.Fatalf("shape %d %s: %v", i, name, err)
			}
			want, err := referenceBuild(b)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(b.edges, before) {
				t.Fatalf("shape %d %s: Build reordered the builder's edges", i, name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d %s (n=%d, m=%d): counting-sort build differs from the reference\n got outOff=%v outAdj=%v\nwant outOff=%v outAdj=%v",
					i, name, n, m, got.outOff, got.outAdj, want.outOff, want.outAdj)
			}
			if !reflect.DeepEqual(got.Layout(), referenceLayout(want)) {
				t.Fatalf("shape %d %s: layout differs from the reference", i, name)
			}
			var wantTable *SampleTable
			if want.sample != nil {
				wantTable = buildSampleTable(want)
			}
			if !reflect.DeepEqual(got.SampleTable(), wantTable) {
				t.Fatalf("shape %d %s: sample table differs from the packing of the reference CSR", i, name)
			}
			if Fingerprint(got) != Fingerprint(want) {
				t.Fatalf("shape %d %s: fingerprint differs", i, name)
			}
			if cap(got.outAdj) != len(got.outAdj) {
				t.Fatalf("shape %d %s: out-CSR keeps a %d-entry buffer for %d edges", i, name, cap(got.outAdj), len(got.outAdj))
			}
		}
	}
}
