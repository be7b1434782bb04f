// Package ranking defines the common result type produced by every
// relevance algorithm in the platform, plus the rank-comparison
// metrics that power the demo's algorithm-comparison use case.
//
// Invariants every producer and consumer relies on:
//
//   - A Result carries exactly one score per node of its graph
//     (enforced by NewResult).
//   - Score 0 means "no relevance": zero-score nodes are excluded
//     from top lists, so an algorithm that finds nothing yields an
//     empty list rather than an arbitrary ordering of zeros.
//   - Top-list order is deterministic across runs and platforms:
//     descending score, ties broken by ascending label, then id.
//   - Comparison metrics (Jaccard, RBO, overlap) operate on label
//     lists, not node ids, so results from different graph builds of
//     the same dataset remain comparable.
package ranking

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// Entry is one (node, score) pair of a ranking.
type Entry struct {
	Node  graph.NodeID `json:"node"`
	Label string       `json:"label"`
	Score float64      `json:"score"`
}

// Result holds the per-node scores produced by a relevance algorithm
// on a particular graph.
type Result struct {
	// Algorithm is the registry name of the producing algorithm.
	Algorithm string `json:"algorithm"`
	// Scores has one entry per node of the graph.
	Scores []float64 `json:"-"`
	// Iterations is the number of iterations an iterative method ran
	// for, 0 for non-iterative methods.
	Iterations int `json:"iterations,omitempty"`
	// Residual is the final convergence residual of an iterative
	// method, 0 otherwise.
	Residual float64 `json:"residual,omitempty"`
	// CyclesFound is the number of elementary cycles CycleRank
	// enumerated, 0 for other algorithms.
	CyclesFound int64 `json:"cycles_found,omitempty"`
	// Cached marks a result that was not paid for by the call that
	// returned it: the vector, or a vector it was combined from, came
	// out of a score-vector memo (see algo.BuiltinsWith). Its Scores
	// slice is shared with other holders and must not be written, and
	// the time the call took says nothing about the algorithm's cost.
	Cached bool `json:"cached,omitempty"`

	g *graph.Graph
}

// NewResult wraps a score vector for graph g.
func NewResult(algorithm string, g *graph.Graph, scores []float64) (*Result, error) {
	if len(scores) != g.NumNodes() {
		return nil, fmt.Errorf("ranking: %d scores for %d nodes", len(scores), g.NumNodes())
	}
	return &Result{Algorithm: algorithm, Scores: scores, g: g}, nil
}

// Graph returns the graph the scores refer to.
func (r *Result) Graph() *graph.Graph { return r.g }

// Score returns the score of node v, or 0 when v is out of range.
func (r *Result) Score(v graph.NodeID) float64 {
	if v < 0 || int(v) >= len(r.Scores) {
		return 0
	}
	return r.Scores[v]
}

// Top returns the k highest-scoring entries in descending score order.
// Ties break by ascending label (then id) so output is deterministic
// across runs and platforms. k < 0 or k >= N returns all nodes.
// Zero-score nodes are excluded: an algorithm that assigns no
// relevance to a node should not rank it.
func (r *Result) Top(k int) []Entry {
	return r.TopFiltered(k, nil)
}

// TopFiltered is Top with an optional exclusion predicate; nodes for
// which exclude returns true are skipped (the demo uses this to drop
// the reference node itself from comparison tables).
//
// Selection is bounded: the first k candidates are collected, then
// kept as a heap whose root is the entry that ranks last, and every
// later candidate either displaces that root or is dropped after one
// comparison — O(N log k), and a label is resolved only for a
// candidate that enters the heap or ties its root on score. Asking
// for everything never builds the heap and is a plain sort.
func (r *Result) TopFiltered(k int, exclude func(graph.NodeID) bool) []Entry {
	if k < 0 || k > len(r.Scores) {
		k = len(r.Scores)
	}
	top := make([]Entry, 0, k)
	if k == 0 {
		return top
	}
	heaped := false
	for v, s := range r.Scores {
		id := graph.NodeID(v)
		if s == 0 {
			continue
		}
		if exclude != nil && exclude(id) {
			continue
		}
		if len(top) < k {
			top = append(top, Entry{Node: id, Label: r.g.Label(id), Score: s})
			continue
		}
		if !heaped {
			for i := k/2 - 1; i >= 0; i-- {
				siftDown(top, i)
			}
			heaped = true
		}
		if s < top[0].Score {
			continue
		}
		if e := (Entry{Node: id, Label: r.g.Label(id), Score: s}); before(e, top[0]) {
			top[0] = e
			siftDown(top, 0)
		}
	}
	sort.Slice(top, func(i, j int) bool { return before(top[i], top[j]) })
	return top
}

// before is the top-list order: descending score, ties broken by
// ascending label, then id.
func before(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	return a.Node < b.Node
}

// siftDown restores, below position i, the heap whose root is the
// entry that ranks last under before.
func siftDown(h []Entry, i int) {
	for {
		last := i
		if l := 2*i + 1; l < len(h) && before(h[last], h[l]) {
			last = l
		}
		if r := 2*i + 2; r < len(h) && before(h[last], h[r]) {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// TopLabels returns the labels of the top-k entries, a convenience for
// table rendering and tests.
func (r *Result) TopLabels(k int) []string {
	top := r.Top(k)
	labels := make([]string, len(top))
	for i, e := range top {
		labels[i] = e.Label
	}
	return labels
}

// Rank returns the 1-based position of every node under the order of
// Top — descending score, ties broken by ascending label, then id — over
// all nodes, zero scores included. No two nodes share a rank: the result
// is a permutation of 1..N, and Combine2D relies on that. Zero-score
// nodes hold the positions between the positive and the negative
// scores, in label order.
//
// Only the support (score ≠ 0) is sorted by score, and a label is
// looked up only for two exactly equal scores. The zero tail is sorted
// by label alone; on an unlabeled graph that is an integer key
// (decimalKey), so no label is ever formatted.
func (r *Result) Rank() []int {
	n := len(r.Scores)
	labels := r.g.Labels()
	byLabel := func(u, v graph.NodeID) int {
		if labels == nil {
			return cmp.Compare(decimalKey(u), decimalKey(v))
		}
		if c := strings.Compare(labels.Name(u), labels.Name(v)); c != 0 {
			return c
		}
		return cmp.Compare(u, v)
	}

	support, positive := 0, 0
	for _, s := range r.Scores {
		if s != 0 {
			support++
		}
		if s > 0 {
			positive++
		}
	}
	scored := make([]scoredNode, 0, support)
	zeros := make([]graph.NodeID, 0, n-support)
	for v, s := range r.Scores {
		if s != 0 {
			scored = append(scored, scoredNode{s, graph.NodeID(v)})
		} else {
			zeros = append(zeros, graph.NodeID(v))
		}
	}
	slices.SortFunc(scored, func(a, b scoredNode) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return byLabel(a.id, b.id)
	})
	slices.SortFunc(zeros, byLabel)

	ranks := make([]int, n)
	pos := 0
	place := func(v graph.NodeID) {
		pos++
		ranks[v] = pos
	}
	for _, e := range scored[:positive] {
		place(e.id)
	}
	for _, v := range zeros {
		place(v)
	}
	for _, e := range scored[positive:] {
		place(e.id)
	}
	return ranks
}

// scoredNode is one entry of the support Rank sorts.
type scoredNode struct {
	score float64
	id    graph.NodeID
}

// decimalKey orders node ids the way their decimal strings order
// ("10" < "9", "1" < "10"): the digits left-aligned in ten places (an
// int32 id has at most ten), then the digit count, so a prefix sorts
// before its extensions. Distinct ids have distinct keys.
func decimalKey(v graph.NodeID) uint64 {
	digits, scale := uint64(1), uint64(1_000_000_000)
	for x := v; x >= 10; x /= 10 {
		digits++
		scale /= 10
	}
	return uint64(v)*scale<<4 | digits
}

// Sum returns the total score mass — 1.0 (within tolerance) for
// PageRank-family stationary distributions.
func (r *Result) Sum() float64 {
	var s float64
	for _, v := range r.Scores {
		s += v
	}
	return s
}

// Normalize scales the scores so they sum to 1, into a fresh slice:
// a Scores slice may be shared (see Cached), so it is replaced, never
// written. It is a no-op on an all-zero result. Nothing in the
// platform calls it; it stays for users of the library.
func (r *Result) Normalize() {
	s := r.Sum()
	if s == 0 {
		return
	}
	scaled := make([]float64, len(r.Scores))
	for i, v := range r.Scores {
		scaled[i] = v / s
	}
	r.Scores = scaled
}
