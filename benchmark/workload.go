package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// Workload names. BENCHMARK.json, the README and later issues refer
// to them.
const (
	pairWarm      = "pair-warm"
	targetCold    = "target-cold"
	algoCompare   = "algo-compare"
	uploadCompare = "upload-compare"
)

// upload is the dataset upload that precedes an upload-compare submit.
// The body is regenerated from the seed when the op is sent, so a
// stream of hundreds of uploads holds no edge lists in memory.
type upload struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
}

// Upload shape: every node gets uploadOut-1 random out-edges plus one
// reciprocated edge, so every node lies on a 2-cycle and CycleRank
// has something to score from any source.
const (
	uploadNodes = 5000
	uploadOut   = 8
	uploadNames = 8
)

// body renders the upload as a CSV edge list.
func (u upload) body() []byte {
	rng := rand.New(rand.NewSource(u.Seed))
	var b bytes.Buffer
	b.Grow(uploadNodes * uploadOut * 12)
	edge := func(from, to int) {
		b.WriteByte('n')
		b.WriteString(strconv.Itoa(from))
		b.WriteString(",n")
		b.WriteString(strconv.Itoa(to))
		b.WriteByte('\n')
	}
	other := func(u int) int {
		v := rng.Intn(uploadNodes - 1)
		if v >= u {
			v++
		}
		return v
	}
	for u := 0; u < uploadNodes; u++ {
		v := other(u)
		edge(u, v)
		edge(v, u)
		for k := 2; k < uploadOut; k++ {
			edge(u, other(u))
		}
	}
	return b.Bytes()
}

// op is one closed-loop operation: an optional upload, then one query
// set submitted to POST /api/tasks and polled to its terminal result.
type op struct {
	Upload *upload     `json:"upload,omitempty"`
	Tasks  []task.Spec `json:"tasks"`
}

// submitBody is the JSON document POSTed to /api/tasks.
func (o op) submitBody() []byte {
	body, err := json.Marshal(struct {
		Tasks []task.Spec `json:"tasks"`
	}{o.Tasks})
	if err != nil {
		panic(err) // task.Spec holds only strings and numbers
	}
	return body
}

// workload is one seeded traffic mix.
type workload struct {
	name string
	why  string
	// opsPerSecond is the operation rate the reference box sustains,
	// rounded down. The measured phase runs the fixed count
	// opsPerSecond × -seconds, not a fixed time: the task registry and
	// results/ are never pruned, so a time-boxed run would charge a
	// faster server more memory and disk.
	opsPerSecond float64
	// refMix says which slowdown of the speed reference (reference.go)
	// corrects this workload's timings: 0 is the system half's, 1 the
	// compute half's. It is fitted, not chosen: of 0, 0.25, … 1 the
	// value under which twenty runs of one binary, made while the host
	// was noisy, agreed best (README, "The speed reference").
	refMix float64
	// datasets must sit in the server's graph cache before set-up ends.
	datasets []string
	// generate returns warm warm-up operations followed by n measured
	// ones.
	generate func(r *refs, rng *rand.Rand, warm, n int) ([]op, error)
}

// counts returns the measured and warm-up operation counts for a run
// of the given nominal length.
func (w workload) counts(seconds int) (n, warm int) {
	n = int(math.Round(w.opsPerSecond * float64(seconds)))
	if n < blocks {
		n = blocks
	}
	warm = n / 20
	if warm < 1 {
		warm = 1
	}
	return n, warm
}

// ops returns the seed's operation stream: warm warm-up operations,
// then n measured ones.
func (w workload) ops(r *refs, seed int64, warm, n int) ([]op, error) {
	return w.generate(r, rand.New(rand.NewSource(seed)), warm, n)
}

// stratified draws k distinct items of ordered, one from each of k
// contiguous equal-count strata, skipping items already taken (and
// taking them). ordered is sorted by whatever the cost of an operation
// depends on, so every seed's draw has the same cost profile while no
// two seeds run the same operations: a few hundred operations whose
// costs differ severalfold would otherwise move every per-operation
// figure by several percent with the luck of the draw.
func stratified(rng *rand.Rand, ordered []int, k int, taken map[int]bool) ([]int, error) {
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(ordered)/k, (i+1)*len(ordered)/k
		at := -1
		for first, j := rng.Intn(hi-lo), 0; j < hi-lo; j++ {
			if c := lo + (first+j)%(hi-lo); !taken[ordered[c]] {
				at = c
				break
			}
		}
		if at < 0 {
			return nil, fmt.Errorf("stratum %d of %d has no unused item left", i, k)
		}
		taken[ordered[at]] = true
		out = append(out, ordered[at])
	}
	rng.Shuffle(k, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

var workloads = []workload{
	{
		name:         pairWarm,
		why:          "hot cached target index, ~0.1 ms of walks: the submit/schedule/persist/poll envelope is >90% of the op; reverse push bypassed",
		opsPerSecond: 1000,
		refMix:       0.5,
		datasets:     []string{"enwiki-2018"},
		generate:     genPairWarm,
	},
	{
		name:         targetCold,
		why:          "never-repeated ppr-target at rmax 1e-6: every op misses both index tiers, reverse push + artifact save dominate; envelope small",
		opsPerSecond: 22,
		refMix:       0.5,
		datasets:     []string{"ba-large"},
		generate:     genTargetCold,
	},
	{
		name:         algoCompare,
		why:          "paper use case (a): the seven paper algorithms as one query set; pagerank+core engines dominate, 7 tasks queue on 2 workers; bippr untouched",
		opsPerSecond: 12,
		refMix:       1,
		datasets:     []string{"ba-medium"},
		generate:     genAlgoCompare,
	},
	{
		name:         uploadCompare,
		why:          "paper use case (b): upload a 5k-node edge list then compare cyclerank+ppr on it; the write side: parse, build, save/load dataset, cache invalidation",
		opsPerSecond: 18,
		refMix:       1,
		generate:     genUploadCompare,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- pair-warm ---

// hotTargets are the four most linked articles of the snapshot: every
// background article reaches them, so every pair estimate is non-zero.
var hotTargets = []string{"United States", "Animal", "Arthropod", "Association football"}

const (
	pairSources = 64
	pairRMax    = 1e-4
	pairWalks   = 500
)

func pairSpec(source, target string) task.Spec {
	return task.Spec{
		Dataset:   "enwiki-2018",
		Algorithm: algo.NameBiPPRPair,
		Params:    algo.Params{Source: source, Target: target, RMax: pairRMax, Walks: pairWalks},
	}
}

// pairSourcePool returns the first pairSources background articles
// whose pair estimate is non-zero against every hot target, so every
// served result has a non-empty top list to validate.
func pairSourcePool(r *refs) ([]string, error) {
	g, err := r.graph("enwiki-2018")
	if err != nil {
		return nil, err
	}
	var pool []string
	for i := 0; len(pool) < pairSources; i++ {
		label := fmt.Sprintf("en:Article %04d", i)
		if _, ok := g.NodeByLabel(label); !ok {
			return nil, fmt.Errorf("pair-warm: only %d of %d usable background articles", len(pool), pairSources)
		}
		usable := true
		for _, t := range hotTargets {
			spec := pairSpec(label, t)
			res, err := algo.Run(context.Background(), r.registry, spec.Algorithm, g, spec.Params)
			if err != nil {
				return nil, err
			}
			if len(res.Top(1)) == 0 {
				usable = false
				break
			}
		}
		if usable {
			pool = append(pool, label)
		}
	}
	return pool, nil
}

func genPairWarm(r *refs, rng *rand.Rand, warm, n int) ([]op, error) {
	pool, err := pairSourcePool(r)
	if err != nil {
		return nil, err
	}
	ops := make([]op, warm+n)
	for i := range ops {
		t := hotTargets[rng.Intn(len(hotTargets))]
		s := pool[rng.Intn(len(pool))]
		ops[i] = op{Tasks: []task.Spec{pairSpec(s, t)}}
	}
	return ops, nil
}

// --- target-cold ---

func genTargetCold(r *refs, rng *rand.Rand, warm, n int) ([]op, error) {
	g, err := r.graph("ba-large")
	if err != nil {
		return nil, err
	}
	if 2*(warm+n) > g.NumNodes() {
		return nil, fmt.Errorf("target-cold: %d ops need more distinct targets than ba-large's %d nodes offer", warm+n, g.NumNodes())
	}
	// A reverse push to t touches the nodes that reach t in proportion
	// to how much of their walk mass ends there, so its cost follows
	// t's global PageRank (0.97 correlation of the logarithms on this
	// graph; a fifth of the nodes have no in-edge and cost nothing, the
	// hubs 75 ms). The strata run over the nodes in PageRank order.
	pr, err := pagerank.PageRank(context.Background(), g, pagerank.Params{Alpha: pagerank.DefaultAlpha})
	if err != nil {
		return nil, err
	}
	byRank := make([]int, g.NumNodes())
	for i := range byRank {
		byRank[i] = i
	}
	sort.SliceStable(byRank, func(i, j int) bool { return pr.Scores[byRank[i]] < pr.Scores[byRank[j]] })
	taken := make(map[int]bool, warm+n)
	measured, err := stratified(rng, byRank, n, taken)
	if err != nil {
		return nil, err
	}
	warmUp, err := stratified(rng, byRank, warm, taken)
	if err != nil {
		return nil, err
	}
	ops := make([]op, 0, warm+n)
	for _, node := range append(warmUp, measured...) {
		ops = append(ops, op{Tasks: []task.Spec{{
			Dataset:   "ba-large",
			Algorithm: algo.NamePPRTarget,
			Params:    algo.Params{Target: g.Label(graph.NodeID(node)), RMax: 1e-6},
		}}})
	}
	return ops, nil
}

// --- algo-compare ---

// paperAlgorithms are the seven algorithms the demo paper compares.
var paperAlgorithms = []string{
	algo.NameCycleRank, algo.NamePageRank, algo.NamePPR, algo.NameCheiRank,
	algo.NamePCheiRank, algo.Name2DRank, algo.NameP2DRank,
}

// reciprocalNodes lists the nodes of g with at least one reciprocated
// edge, in id order: the sources from which CycleRank finds a cycle.
func reciprocalNodes(g *graph.Graph) []graph.NodeID {
	var out []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		u := graph.NodeID(v)
		for _, w := range g.Out(u) {
			if w != u && g.HasEdge(w, u) {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

func genAlgoCompare(r *refs, rng *rand.Rand, warm, n int) ([]op, error) {
	g, err := r.graph("ba-medium")
	if err != nil {
		return nil, err
	}
	pool := reciprocalNodes(g)
	if len(pool) == 0 {
		return nil, fmt.Errorf("algo-compare: ba-medium has no reciprocated edge")
	}
	ops := make([]op, warm+n)
	for i := range ops {
		source := g.Label(pool[rng.Intn(len(pool))])
		specs := make([]task.Spec, len(paperAlgorithms))
		for j, name := range paperAlgorithms {
			specs[j] = task.Spec{Dataset: "ba-medium", Algorithm: name, Params: algo.Params{Source: source}}
			if name == algo.NameCycleRank {
				specs[j].Params.K = 3
			}
		}
		ops[i] = op{Tasks: specs}
	}
	return ops, nil
}

// --- upload-compare ---

func genUploadCompare(_ *refs, rng *rand.Rand, warm, n int) ([]op, error) {
	ops := make([]op, warm+n)
	for i := range ops {
		// Names cycle by position, so every upload past the first
		// uploadNames replaces a dataset the server has cached.
		up := &upload{Name: fmt.Sprintf("up%d", i%uploadNames), Seed: rng.Int63()}
		source := "n" + strconv.Itoa(rng.Intn(uploadNodes))
		ops[i] = op{Upload: up, Tasks: []task.Spec{
			{Dataset: up.Name, Algorithm: algo.NameCycleRank, Params: algo.Params{Source: source, K: 3}},
			{Dataset: up.Name, Algorithm: algo.NamePPR, Params: algo.Params{Source: source}},
		}}
	}
	return ops, nil
}

// --- in-process reference stack ---

// refs is the benchmark's own copy of the catalog and the built-in
// algorithms. The generators pick inputs from its graphs and the
// validator recomputes served results on it; the server under test
// never sees it.
type refs struct {
	catalog  *datasets.Catalog
	registry *algo.Registry
	graphs   map[string]*graph.Graph
}

func newRefs() (*refs, error) {
	catalog, err := datasets.BuiltinCatalog()
	if err != nil {
		return nil, err
	}
	return &refs{catalog: catalog, registry: algo.NewBuiltinRegistry(), graphs: make(map[string]*graph.Graph)}, nil
}

// graph returns the named catalog graph, generating it once.
func (r *refs) graph(name string) (*graph.Graph, error) {
	if g, ok := r.graphs[name]; ok {
		return g, nil
	}
	d, err := r.catalog.Get(name)
	if err != nil {
		return nil, err
	}
	g, err := d.Load()
	if err != nil {
		return nil, err
	}
	r.graphs[name] = g
	return g, nil
}

// opGraph returns the graph an op's tasks run on: a catalog graph, or
// the op's own upload parsed the way the server parses it.
func (r *refs) opGraph(o op) (*graph.Graph, error) {
	if o.Upload != nil {
		return formats.Read(bytes.NewReader(o.Upload.body()), formats.FormatEdgeList)
	}
	return r.graph(o.Tasks[0].Dataset)
}
