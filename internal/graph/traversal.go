package graph

// Unreachable is the distance reported for nodes a bounded search did
// not reach.
const Unreachable = -1

// BFSFrom computes shortest-path distances (in edges) from src over
// out-edges, visiting only nodes within maxDepth hops. maxDepth < 0
// means unbounded. The result has one entry per node; unreached nodes
// hold Unreachable.
func BFSFrom(g *Graph, src NodeID, maxDepth int) []int32 {
	return bfs(g, src, maxDepth, false)
}

// BFSTo computes shortest-path distances (in edges) *to* dst over
// out-edges — equivalently, distances from dst over in-edges. maxDepth
// < 0 means unbounded.
func BFSTo(g *Graph, dst NodeID, maxDepth int) []int32 {
	return bfs(g, dst, maxDepth, true)
}

func bfs(g *Graph, src NodeID, maxDepth int, reverse bool) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if !g.ValidNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d := dist[v]
		if maxDepth >= 0 && int(d) >= maxDepth {
			continue
		}
		var adj []NodeID
		if reverse {
			adj = g.In(v)
		} else {
			adj = g.Out(v)
		}
		for _, w := range adj {
			if dist[w] == Unreachable {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
