package graph

import "fmt"

// Weights attaches a positive weight to every edge of a Graph, stored
// parallel to the out-CSR so weight lookup during traversal is an
// array index, not a map probe. Weighted graphs model interaction
// counts on Twitter networks (two users who replied to each other
// fifty times are closer than a one-off mention) and co-purchase
// frequencies on Amazon.
type Weights struct {
	g *Graph
	w []float64 // parallel to g.outAdj
}

// NewWeights returns an all-ones weight overlay for g.
func NewWeights(g *Graph) *Weights {
	w := make([]float64, g.NumEdges())
	for i := range w {
		w[i] = 1
	}
	return &Weights{g: g, w: w}
}

// edgeSlot locates the out-CSR index of edge (from, to).
func (ws *Weights) edgeSlot(from, to NodeID) (int64, error) {
	if !ws.g.ValidNode(from) || !ws.g.ValidNode(to) {
		return 0, fmt.Errorf("graph: weights: edge (%d,%d) out of range", from, to)
	}
	adj := ws.g.Out(from)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(adj) || adj[lo] != to {
		return 0, fmt.Errorf("graph: weights: edge (%d,%d) does not exist", from, to)
	}
	return ws.g.outOff[from] + int64(lo), nil
}

// Set assigns a weight to edge (from, to). Weights must be positive.
func (ws *Weights) Set(from, to NodeID, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("graph: weights: non-positive weight %v for edge (%d,%d)", weight, from, to)
	}
	slot, err := ws.edgeSlot(from, to)
	if err != nil {
		return err
	}
	ws.w[slot] = weight
	return nil
}

// Add increases the weight of edge (from, to) by delta (used when
// accumulating repeated interactions).
func (ws *Weights) Add(from, to NodeID, delta float64) error {
	if delta <= 0 {
		return fmt.Errorf("graph: weights: non-positive delta %v", delta)
	}
	slot, err := ws.edgeSlot(from, to)
	if err != nil {
		return err
	}
	ws.w[slot] += delta
	return nil
}

// Get returns the weight of edge (from, to).
func (ws *Weights) Get(from, to NodeID) (float64, error) {
	slot, err := ws.edgeSlot(from, to)
	if err != nil {
		return 0, err
	}
	return ws.w[slot], nil
}

// OutWeights returns the weight slice parallel to g.Out(v). The slice
// aliases internal storage and must not be modified.
func (ws *Weights) OutWeights(v NodeID) []float64 {
	return ws.w[ws.g.outOff[v]:ws.g.outOff[v+1]]
}

// OutSum returns the total outgoing weight of v.
func (ws *Weights) OutSum(v NodeID) float64 {
	var sum float64
	for _, x := range ws.OutWeights(v) {
		sum += x
	}
	return sum
}

// Graph returns the graph the weights belong to.
func (ws *Weights) Graph() *Graph { return ws.g }
