// Package datasets provides the platform's pre-loaded graphs.
//
// The demo paper ships 50 datasets: WikiLinkGraphs snapshots (nine
// Wikipedia language editions, four yearly snapshots each), the Amazon
// co-purchase network, and two Twitter interaction networks. Those
// corpora are proprietary or require network access, so this package
// replaces them with deterministic synthetic generators that preserve
// the structural phenomenon the paper's evaluation exercises:
//
//   - global hub nodes with very high in-degree and near-zero
//     reciprocity (the nodes Personalized PageRank over-promotes), and
//   - topical communities with dense reciprocal links around named
//     reference nodes (the nodes CycleRank is designed to surface),
//     embedded in a preferential-attachment background.
//
// Every generator is seeded, so a given dataset name always produces a
// byte-identical graph. See docs/ARCHITECTURE.md, "Datasets", for the
// substitution rationale.
//
// Invariants:
//
//   - Determinism: Catalog.Get(name).Load() returns the same graph —
//     same node count, same edges, same labels in the same order —
//     on every call, platform, and Go version (generators use only
//     math/rand with fixed seeds, whose sequence is stable).
//   - Idempotent loading: generators build a fresh graph per Load;
//     callers own the result and the catalog holds no mutable state.
//   - Suggested sources always resolve: every name in a dataset's
//     SuggestedSources is a label present in the generated graph
//     (tests enforce this), so UIs can offer them unchecked.
package datasets

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// Dataset is a catalog entry: a named, self-describing graph
// generator.
type Dataset struct {
	// Name is the unique catalog key, e.g. "enwiki-2018".
	Name string `json:"name"`
	// Kind groups datasets by family: "wikilink", "amazon", "twitter"
	// or "synthetic".
	Kind string `json:"kind"`
	// Description is a one-line human-readable summary.
	Description string `json:"description"`
	// SuggestedSources are labels that make good reference nodes for
	// personalized algorithms on this dataset (shown by the UI).
	SuggestedSources []string `json:"suggested_sources,omitempty"`

	generate func() (*graph.Graph, error)
}

// Load generates the dataset's graph. Generation is deterministic:
// repeated calls return structurally identical graphs.
func (d Dataset) Load() (*graph.Graph, error) {
	if d.generate == nil {
		return nil, fmt.Errorf("datasets: %s has no generator", d.Name)
	}
	g, err := d.generate()
	if err != nil {
		return nil, fmt.Errorf("datasets: generating %s: %w", d.Name, err)
	}
	return g, nil
}

// Catalog is a named collection of datasets.
type Catalog struct {
	byName map[string]Dataset
}

// NewCatalog builds a catalog from the given datasets, rejecting
// duplicates.
func NewCatalog(ds ...Dataset) (*Catalog, error) {
	c := &Catalog{byName: make(map[string]Dataset, len(ds))}
	for _, d := range ds {
		if d.Name == "" {
			return nil, fmt.Errorf("datasets: dataset with empty name")
		}
		if _, dup := c.byName[d.Name]; dup {
			return nil, fmt.Errorf("datasets: duplicate dataset %q", d.Name)
		}
		c.byName[d.Name] = d
	}
	return c, nil
}

// Get resolves a dataset by name.
func (c *Catalog) Get(name string) (Dataset, error) {
	d, ok := c.byName[name]
	if !ok {
		return Dataset{}, fmt.Errorf("datasets: unknown dataset %q", name)
	}
	return d, nil
}

// Names returns all dataset names in sorted order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns all datasets sorted by name.
func (c *Catalog) All() []Dataset {
	out := make([]Dataset, 0, len(c.byName))
	for _, n := range c.Names() {
		out = append(out, c.byName[n])
	}
	return out
}

// Len returns the number of datasets.
func (c *Catalog) Len() int { return len(c.byName) }

// weightedPicker samples indices proportionally to fixed weights,
// deterministically under a seeded RNG.
type weightedPicker struct {
	cum   []float64
	total float64
}

func newWeightedPicker(weights []float64) *weightedPicker {
	p := &weightedPicker{cum: make([]float64, len(weights))}
	for i, w := range weights {
		p.total += w
		p.cum[i] = p.total
	}
	return p
}

func (p *weightedPicker) pick(rng *rand.Rand) int {
	if p.total == 0 {
		return 0
	}
	x := rng.Float64() * p.total
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
