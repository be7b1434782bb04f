package ranking

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// referenceRank is the full comparison sort Rank replaced: every node
// sorted by (score desc, label asc, id asc), a label formatted for each
// comparison. It stays as the oracle Rank must match bit for bit.
func referenceRank(r *Result) []int {
	n := len(r.Scores)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := r.Scores[ids[a]], r.Scores[ids[b]]
		if sa != sb {
			return sa > sb
		}
		la, lb := r.g.Label(ids[a]), r.g.Label(ids[b])
		if la != lb {
			return la < lb
		}
		return ids[a] < ids[b]
	})
	ranks := make([]int, n)
	for pos, id := range ids {
		ranks[id] = pos + 1
	}
	return ranks
}

// rankGraphs returns an unlabeled graph of n nodes, whose decimal labels
// sort unlike their ids once n > 10, and a labeled one whose labels are
// a shuffled "n<k>" so label order is neither id nor decimal order.
func rankGraphs(t testing.TB, rng *rand.Rand, n int) (unlabeled, labeled *graph.Graph) {
	t.Helper()
	unlabeled, err := graph.FromEdges(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewLabeledBuilder()
	for _, k := range rng.Perm(n) {
		b.AddNode("n" + strconv.Itoa(k))
	}
	if labeled, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	return unlabeled, labeled
}

// TestRankMatchesReference: on score vectors that are mostly ties and
// zeros (negative and infinite scores, and -0, included), on unlabeled
// graphs whose size crosses 10, 100 and 1000 and on labeled ones, Rank
// returns exactly what the full sort returns.
func TestRankMatchesReference(t *testing.T) {
	levels := []float64{0, 0, 0, math.Copysign(0, -1), 0.125, 0.25, 0.25, 0.5, 1, -0.5, math.Inf(1)}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1500} {
		unlabeled, labeled := rankGraphs(t, rng, n)
		for mode := 0; mode < 5; mode++ {
			scores := make([]float64, n)
			for i := range scores {
				switch mode {
				case 0: // a handful of levels: nearly everything ties
					scores[i] = levels[rng.Intn(len(levels))]
				case 1: // distinct scores, a third of them zero
					if rng.Intn(3) > 0 {
						scores[i] = rng.Float64()
					}
				case 2: // all zero: the whole ranking is the zero tail
				case 3: // one score for every node
					scores[i] = 0.5
				case 4: // a short support ahead of a long zero tail
					if i%37 == 0 {
						scores[i] = 1 / float64(i+1)
					}
				}
			}
			for _, g := range []*graph.Graph{unlabeled, labeled} {
				r := mustResult(t, "t", g, scores)
				if got, want := r.Rank(), referenceRank(r); !slices.Equal(got, want) {
					t.Fatalf("n=%d mode=%d labeled=%v: Rank differs from the reference\n got %v\nwant %v",
						n, mode, g == labeled, got, want)
				}
			}
		}
	}
}

// TestDecimalKeyOrdersLikeStrings: the unlabeled tail key sorts ids
// exactly as their decimal strings sort, at every digit-count boundary
// up to the largest id a graph can hold.
func TestDecimalKeyOrdersLikeStrings(t *testing.T) {
	var ids []graph.NodeID
	for p := int64(1); p <= graph.MaxNodeID; p *= 10 {
		for _, v := range []int64{p - 1, p, p + 1, 2*p - 1, 9 * p} {
			if v >= 0 && v <= graph.MaxNodeID {
				ids = append(ids, graph.NodeID(v))
			}
		}
	}
	ids = append(ids, graph.MaxNodeID, graph.MaxNodeID-1, 214748364, 21474836)
	for _, u := range ids {
		for _, v := range ids {
			want := strings.Compare(strconv.Itoa(int(u)), strconv.Itoa(int(v)))
			if got := cmp.Compare(decimalKey(u), decimalKey(v)); got != want {
				t.Fatalf("decimalKey(%d) vs decimalKey(%d): %d, strings compare %d", u, v, got, want)
			}
		}
	}
}

// FuzzRank: any byte string is a score vector — one node per byte, a
// quarter of them zero, the rest on sixteen levels (ties forced, some
// negative) — over an unlabeled or a labeled graph chosen by the first
// byte; Rank must equal the full sort.
func FuzzRank(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 200, 200, 0, 64, 7, 255, 80, 0, 0, 0, 0, 130})
	f.Add([]byte("\x00 the zero tail of an unlabeled graph crosses ten"))
	f.Add([]byte("\x01 and a labeled one"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		n := len(data) - 1
		var g *graph.Graph
		var err error
		if data[0]&1 == 0 {
			g, err = graph.FromEdges(n, nil)
		} else {
			b := graph.NewLabeledBuilder()
			for i := 0; i < n; i++ {
				b.AddNode("x" + strconv.Itoa((n-i)*7))
			}
			g, err = b.Build()
		}
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, n)
		for i, c := range data[1:] {
			if c >= 64 {
				scores[i] = float64(c%16)/4 - 1
			}
		}
		r := mustResult(t, "t", g, scores)
		if got, want := r.Rank(), referenceRank(r); !slices.Equal(got, want) {
			t.Fatalf("scores %v: Rank differs from the reference\n got %v\nwant %v", scores, got, want)
		}
	})
}
