package tree

// Step is one Felsenstein-pruning operation: compute the ancestral
// vector at Node (oriented toward the traversal root) by combining the
// vectors of Left and Right across LeftEdge and RightEdge.
type Step struct {
	// Node is the inner node whose vector this step (re)computes.
	Node *Node
	// Toward is the neighbor of Node on the path to the traversal root;
	// the computed vector is valid "pointing toward" this node.
	Toward *Node
	// Left and Right are the two children feeding the computation.
	Left, Right *Node
	// LeftEdge and RightEdge connect Node to Left and Right.
	LeftEdge, RightEdge *Edge
}

// Orientation records, per inner node, which neighbor its ancestral
// vector currently points toward (nil = vector invalid/never computed).
// The likelihood engine owns one Orientation per tree and the traversal
// planner consults it to emit minimal partial traversals, exactly like
// RAxML's per-node x-pointer.
type Orientation []*Node

// NewOrientation returns an all-invalid orientation for a tree with the
// given total node count.
func NewOrientation(numNodes int) Orientation {
	return make(Orientation, numNodes)
}

// FullTraversal returns the post-order plan that recomputes every inner
// node's vector, oriented toward the virtual root placed on edge e
// (both endpoint vectors end up pointing at each other, ready for
// evaluation at e). The plan visits children before parents, so
// executing steps in order satisfies all data dependencies. For two-tip
// trees the plan is empty. A full traversal is exactly an
// AppendEdgeTraversal under an all-invalid orientation.
func FullTraversal(t *Tree, e *Edge) []Step {
	return AppendEdgeTraversal(nil, e, NewOrientation(len(t.Nodes)))
}

// AppendEdgeTraversal appends to dst, and returns, the minimal plan that
// makes the vectors at both endpoints of e valid and oriented toward
// each other, as required to evaluate the likelihood at e.
// Already-valid vectors (per orient) are not recomputed: this is the
// partial-traversal machinery that gives PLF programs their access
// locality. Executing the steps and then calling
// ApplyOrientation(orient, steps) brings orient up to date. A caller
// that plans repeatedly passes the last plan[:0] and allocates nothing
// once the buffer is large enough.
func AppendEdgeTraversal(dst []Step, e *Edge, orient Orientation) []Step {
	dst = appendNeeded(dst, e.N[0], e.N[1], orient)
	return appendNeeded(dst, e.N[1], e.N[0], orient)
}

// appendNeeded appends, in post-order, the steps that make n's vector
// valid toward toward.
func appendNeeded(steps []Step, n, toward *Node, orient Orientation) []Step {
	if n.IsTip() {
		return steps
	}
	if orient[n.Index] == toward {
		return steps // already valid in this direction
	}
	var children [2]*Node
	var edges [2]*Edge
	k := 0
	for _, adj := range n.Adj {
		o := adj.Other(n)
		if o == toward {
			continue
		}
		children[k] = o
		edges[k] = adj
		k++
	}
	steps = appendNeeded(steps, children[0], n, orient)
	steps = appendNeeded(steps, children[1], n, orient)
	return append(steps, Step{
		Node: n, Toward: toward,
		Left: children[0], Right: children[1],
		LeftEdge: edges[0], RightEdge: edges[1],
	})
}

// ApplyOrientation records the orientations produced by executing steps.
func ApplyOrientation(orient Orientation, steps []Step) {
	for i := range steps {
		orient[steps[i].Node.Index] = steps[i].Toward
	}
}

// NodeDistances returns, for every node, the number of nodes on the
// path from start to it (excluding start itself; adjacent nodes have
// distance 1). This is the distance the paper's Topological replacement
// strategy maximises when picking an eviction victim.
func NodeDistances(t *Tree, start *Node) []int {
	dist := make([]int, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[start.Index] = 0
	queue := []*Node{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.Adj {
			o := e.Other(cur)
			if dist[o.Index] < 0 {
				dist[o.Index] = dist[cur.Index] + 1
				queue = append(queue, o)
			}
		}
	}
	return dist
}

// PathLength returns the number of nodes along the unique path between
// a and b (the paper's node distance), or -1 if either is unreachable.
func PathLength(t *Tree, a, b *Node) int {
	return NodeDistances(t, a)[b.Index]
}
