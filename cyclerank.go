// Package cyclerank is the public façade of the CycleRank platform: a
// Go reproduction of "Comparing Personalized Relevance Algorithms for
// Directed Graphs" (Cavalcanti, Consonni, Brugnara, Laniado,
// Montresor; ICDE 2024).
//
// The package re-exports the supported API surface of the internal
// packages so downstream users need a single import:
//
//	g, _ := cyclerank.ReadGraphFile("wiki.csv")
//	ref, _ := g.NodeByLabel("Fake news")
//	res, _ := cyclerank.Compute(ctx, g, ref, cyclerank.Params{K: 3})
//	for _, e := range res.Top(5) {
//	    fmt.Println(e.Label, e.Score)
//	}
//
// Beyond the core algorithm the façade exposes the full comparison
// platform: the algorithm registry (PageRank, Personalized PageRank,
// CheiRank, 2DRank and personalized variants), the 50-dataset catalog,
// rank-agreement metrics, and the task scheduler + HTTP gateway that
// make up the demo system.
package cyclerank

import (
	"context"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/core"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/pagerank"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/server"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// Graph construction and inspection.
type (
	// Graph is an immutable directed graph in CSR form.
	Graph = graph.Graph
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Edge is a directed edge.
	Edge = graph.Edge
	// Stats summarizes a graph's structure.
	Stats = graph.Stats
)

// NewBuilder returns a builder for an unlabeled graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewLabeledBuilder returns a builder whose nodes are interned by
// string label.
func NewLabeledBuilder() *Builder { return graph.NewLabeledBuilder() }

// ComputeStats collects structural statistics for g.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// EgoNet returns the subgraph within radius hops of center (both edge
// directions), plus the new-to-original id mapping.
func EgoNet(g *Graph, center NodeID, radius int) (*Graph, []NodeID, error) {
	return graph.EgoNet(g, center, radius)
}

// InducedSubgraph returns the subgraph induced by the given nodes,
// plus the new-to-original id mapping.
func InducedSubgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID, error) {
	return graph.InducedSubgraph(g, nodes)
}

// CycleRank, the paper's primary contribution.
type (
	// Params configures CycleRank.
	Params = core.Params
	// ScoringFunc weights a cycle by its length.
	ScoringFunc = core.ScoringFunc
)

// CycleRank scoring function names.
const (
	ScoringExponential = core.ScoringExponential
	ScoringLinear      = core.ScoringLinear
	ScoringQuadratic   = core.ScoringQuadratic
	ScoringConstant    = core.ScoringConstant
)

// Compute runs CycleRank on g with reference node r.
func Compute(ctx context.Context, g *Graph, r NodeID, p Params) (*Result, error) {
	return core.Compute(ctx, g, r, p)
}

// CountCycles counts elementary cycles of length at most k through r.
func CountCycles(ctx context.Context, g *Graph, r NodeID, k int) (int64, error) {
	return core.CountCycles(ctx, g, r, k)
}

// ScoringByName resolves a named scoring function (exp, lin, quad,
// const).
func ScoringByName(name string) (ScoringFunc, error) { return core.ScoringByName(name) }

// Cycle is one elementary cycle through a reference node.
type Cycle = core.Cycle

// ListCycles enumerates up to limit cycles through r, shortest first,
// returning the uncapped total alongside.
func ListCycles(ctx context.Context, g *Graph, r NodeID, p Params, limit int) ([]Cycle, int64, error) {
	return core.ListCycles(ctx, g, r, p, limit)
}

// CyclesThrough lists up to limit cycles containing both r and i — the
// explanation behind a single ranking row.
func CyclesThrough(ctx context.Context, g *Graph, r, i NodeID, p Params, limit int) ([]Cycle, error) {
	return core.CyclesThrough(ctx, g, r, i, p, limit)
}

// The PageRank family.
type (
	// PageRankParams configures the PageRank power iteration.
	PageRankParams = pagerank.Params
)

// PageRank computes classic PageRank.
func PageRank(ctx context.Context, g *Graph, p PageRankParams) (*Result, error) {
	return pagerank.PageRank(ctx, g, p)
}

// PersonalizedPageRank computes PageRank with teleports restricted to
// the seed set in p.Seeds.
func PersonalizedPageRank(ctx context.Context, g *Graph, p PageRankParams) (*Result, error) {
	return pagerank.Personalized(ctx, g, p)
}

// CheiRank computes PageRank on the transposed graph.
func CheiRank(ctx context.Context, g *Graph, p PageRankParams) (*Result, error) {
	return pagerank.CheiRank(ctx, g, p)
}

// TwoDRank computes the combined PageRank/CheiRank square-sweep
// ranking.
func TwoDRank(ctx context.Context, g *Graph, p PageRankParams) (*Result, error) {
	return pagerank.TwoDRank(ctx, g, p)
}

// Rankings and comparison metrics.
type (
	// Result holds per-node scores produced by an algorithm.
	Result = ranking.Result
	// Entry is one (node, score) pair.
	Entry = ranking.Entry
	// Agreement is a pairwise rank-agreement summary.
	Agreement = ranking.Agreement
)

// NewResult wraps a raw score vector (one score per node of g) as a
// Result — the constructor custom algorithms use.
func NewResult(algorithm string, g *Graph, scores []float64) (*Result, error) {
	return ranking.NewResult(algorithm, g, scores)
}

// JaccardAtK returns the Jaccard similarity of two results' top-k
// sets.
func JaccardAtK(a, b *Result, k int) float64 { return ranking.JaccardAtK(a, b, k) }

// RBO returns the rank-biased overlap of two results at depth k with
// persistence p.
func RBO(a, b *Result, k int, p float64) (float64, error) { return ranking.RBO(a, b, k, p) }

// CompareAt produces the full pairwise Agreement at depth k.
func CompareAt(a, b *Result, k int) (Agreement, error) { return ranking.CompareAt(a, b, k) }

// RankDiff describes how a top-k ranking changed between two results
// (matched by label, so the results may come from different graphs,
// e.g. two snapshot years).
type RankDiff = ranking.Diff

// DiffTopK compares the top-k of two results by label.
func DiffTopK(old, new *Result, k int) (*RankDiff, error) { return ranking.DiffTopK(old, new, k) }

// Algorithm registry: the platform's extension point.
type (
	// Algorithm is a pluggable relevance algorithm.
	Algorithm = algo.Algorithm
	// AlgorithmFunc adapts a function into an Algorithm.
	AlgorithmFunc = algo.Func
	// Registry is a collection of algorithms.
	Registry = algo.Registry
	// AlgoParams is the shared parameter schema.
	AlgoParams = algo.Params
)

// Registry names of the built-in algorithms.
const (
	AlgoCycleRank = algo.NameCycleRank
	AlgoPageRank  = algo.NamePageRank
	AlgoPPR       = algo.NamePPR
	AlgoCheiRank  = algo.NameCheiRank
	AlgoPCheiRank = algo.NamePCheiRank
	Algo2DRank    = algo.Name2DRank
	AlgoP2DRank   = algo.NameP2DRank
)

// NewRegistry returns a registry pre-populated with every built-in
// algorithm.
func NewRegistry() *Registry { return algo.NewBuiltinRegistry() }

// RunAlgorithm executes a registered algorithm by name.
func RunAlgorithm(ctx context.Context, r *Registry, name string, g *Graph, p AlgoParams) (*Result, error) {
	return algo.Run(ctx, r, name, g, p)
}

// Datasets.
type (
	// Dataset is a named graph generator from the catalog.
	Dataset = datasets.Dataset
	// DatasetCatalog is a collection of datasets.
	DatasetCatalog = datasets.Catalog
)

// LoadCatalog returns the 50 pre-loaded datasets the demo ships.
func LoadCatalog() (*DatasetCatalog, error) { return datasets.BuiltinCatalog() }

// Graph file formats.
type (
	// Format identifies a supported graph file format.
	Format = formats.Format
)

// Supported formats.
const (
	FormatEdgeList = formats.FormatEdgeList
	FormatPajek    = formats.FormatPajek
	FormatASD      = formats.FormatASD
)

// ReadGraphFile loads a graph from disk, inferring its format.
func ReadGraphFile(path string) (*Graph, error) { return formats.ReadFile(path) }

// WriteGraphFile stores a graph to disk in the format implied by the
// extension.
func WriteGraphFile(path string, g *Graph) error { return formats.WriteFile(path, g) }

// Platform: scheduler, datastore and HTTP gateway.
type (
	// TaskSpec is the (dataset, algorithm, params) triple.
	TaskSpec = task.Spec
	// Task is a scheduled spec with execution metadata.
	Task = task.Task
	// TaskResult is a persisted task outcome.
	TaskResult = task.Result
	// Scheduler runs tasks on an executor pool.
	Scheduler = task.Scheduler
	// SchedulerConfig configures a Scheduler.
	SchedulerConfig = task.SchedulerConfig
	// Store is the file-backed datastore.
	Store = datastore.Store
	// Server is the HTTP API gateway + Web UI.
	Server = server.Server
	// ServerConfig configures a Server.
	ServerConfig = server.Config
)

// OpenStore creates or opens a datastore rooted at dir.
func OpenStore(dir string) (*Store, error) { return datastore.Open(dir) }

// NewScheduler builds a task scheduler and starts its executor pool.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) { return task.NewScheduler(cfg) }

// NewServer builds the HTTP gateway.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }
