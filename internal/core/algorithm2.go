package core

import (
	"fmt"
	"math"
	"sort"
)

// SuperTree is the postprocessed scalar tree of Algorithm 2. When the
// input field has duplicate scalar values, the raw tree of Algorithm 1
// can contain subtrees that are not maximal α-connected components;
// Algorithm 2 repairs this by merging every ancestor with all of its
// equal-scalar descendants into a single super node.
//
// After postprocessing, Properties 2–4 of the scalar-tree definition
// hold again: the subtrees of a SuperTree are exactly the maximal
// α-connected components of the field, nested the same way.
type SuperTree struct {
	// Parent[s] is super node s's parent, or -1 for a root.
	Parent []int32
	// Scalar[s] is the shared scalar value of every member of s.
	Scalar []float64
	// Members[s] lists the item IDs (vertices or edges) merged into s,
	// in increasing ID order.
	Members [][]int32
	// NodeOf maps each item ID to its super node.
	NodeOf []int32

	children [][]int32 // lazily built
	size     []int32   // lazily built: total items in each subtree
}

// Postprocess runs Algorithm 2 on a raw scalar tree: a single pass
// that groups each ancestor with its equal-scalar descendants into
// super nodes. Time complexity is O(|V|) beyond the children lists.
func Postprocess(t *Tree) *SuperTree {
	n := t.Len()
	st := &SuperTree{NodeOf: make([]int32, n)}
	for i := range st.NodeOf {
		st.NodeOf[i] = -1
	}
	ch := t.Children()

	newSuper := func(parent int32, scalar float64) int32 {
		s := int32(len(st.Parent))
		st.Parent = append(st.Parent, parent)
		st.Scalar = append(st.Scalar, scalar)
		st.Members = append(st.Members, nil)
		return s
	}

	// ancestors is the worklist of (tree node, its super node's parent)
	// pairs from the paper's pseudocode: each entry starts a new super
	// node that absorbs the node's equal-scalar descendant closure.
	type anc struct {
		node   int32
		parent int32 // parent super node, -1 for roots
	}
	var ancestors []anc
	for _, r := range t.Roots() {
		ancestors = append(ancestors, anc{r, -1})
	}
	for head := 0; head < len(ancestors); head++ {
		a := ancestors[head]
		s := newSuper(a.parent, t.Scalar[a.node])
		// BFS over the equal-scalar closure below a.node.
		queue := []int32{a.node}
		for len(queue) > 0 {
			nq := queue[0]
			queue = queue[1:]
			st.Members[s] = append(st.Members[s], nq)
			st.NodeOf[nq] = s
			for _, nc := range ch[nq] {
				if t.Scalar[nc] == t.Scalar[nq] {
					queue = append(queue, nc)
				} else {
					ancestors = append(ancestors, anc{nc, s})
				}
			}
		}
		sort.Slice(st.Members[s], func(i, j int) bool { return st.Members[s][i] < st.Members[s][j] })
	}
	return st
}

// Len reports the number of super nodes.
func (st *SuperTree) Len() int { return len(st.Parent) }

// NumItems reports the number of underlying items (vertices or edges).
func (st *SuperTree) NumItems() int { return len(st.NodeOf) }

// Roots returns the root super nodes in increasing ID order.
func (st *SuperTree) Roots() []int32 {
	var roots []int32
	for i, p := range st.Parent {
		if p < 0 {
			roots = append(roots, int32(i))
		}
	}
	return roots
}

// Children returns the child lists of every super node, cached.
// Callers must not modify the result.
func (st *SuperTree) Children() [][]int32 {
	if st.children != nil {
		return st.children
	}
	ch := make([][]int32, len(st.Parent))
	for i, p := range st.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], int32(i))
		}
	}
	st.children = ch
	return ch
}

// SubtreeSize returns the total number of items in the subtree rooted
// at each super node (including the node's own members). Cached.
func (st *SuperTree) SubtreeSize() []int32 {
	if st.size != nil {
		return st.size
	}
	size := make([]int32, len(st.Parent))
	// Validate enforces parent-first node IDs (Parent[s] < s), so a
	// reverse scan sees every child before its parent.
	for s := len(st.Parent) - 1; s >= 0; s-- {
		size[s] += int32(len(st.Members[s]))
		if p := st.Parent[s]; p >= 0 {
			size[p] += size[s]
		}
	}
	st.size = size
	return size
}

// SubtreeItems returns every item in the subtree rooted at s,
// in increasing item-ID order.
func (st *SuperTree) SubtreeItems(s int32) []int32 {
	ch := st.Children()
	var items []int32
	stack := []int32{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		items = append(items, st.Members[v]...)
		stack = append(stack, ch[v]...)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// MCC returns the items of MCC(item): the maximal α-connected
// component with α = item's scalar that contains the item
// (Definition 2 / Proposition 2 of the paper). In the super tree this
// is exactly the subtree rooted at the item's super node.
func (st *SuperTree) MCC(item int32) []int32 {
	return st.SubtreeItems(st.NodeOf[item])
}

// ComponentRootsAt returns the super nodes that root the maximal
// α-connected components for the given α: nodes with scalar >= α whose
// parent (if any) has scalar < α. This realizes the paper's "draw a
// line at height α" operation on the tree.
func (st *SuperTree) ComponentRootsAt(alpha float64) []int32 {
	var roots []int32
	for s := range st.Parent {
		if st.Scalar[s] < alpha {
			continue
		}
		p := st.Parent[s]
		if p < 0 || st.Scalar[p] < alpha {
			roots = append(roots, int32(s))
		}
	}
	return roots
}

// ComponentsAt returns the item sets of all maximal α-connected
// components for the given α, one sorted slice per component, ordered
// by each component's smallest item ID. This is the tree-based
// counterpart of the brute-force extraction used as a test oracle.
func (st *SuperTree) ComponentsAt(alpha float64) [][]int32 {
	var comps [][]int32
	for _, r := range st.ComponentRootsAt(alpha) {
		comps = append(comps, st.SubtreeItems(r))
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Validate checks super-tree invariants in O(nodes + items): every
// scalar is a number, parent IDs are smaller than their children's
// (the parent-first order Postprocess creates, which rules out cycles
// and which SubtreeSize, Persistences and terrain depth rely on),
// scalars rise strictly along parent links (equal-scalar chains must
// have been merged), and every item is assigned to exactly one super
// node.
func (st *SuperTree) Validate() error {
	n := len(st.Parent)
	if len(st.Scalar) != n || len(st.Members) != n {
		return fmt.Errorf("core: super tree slice lengths disagree")
	}
	total := 0
	for s := 0; s < n; s++ {
		if math.IsNaN(st.Scalar[s]) {
			return fmt.Errorf("core: super node %d has a NaN scalar", s)
		}
		p := st.Parent[s]
		if p < -1 || int(p) >= s {
			return fmt.Errorf("core: super node %d has parent %d, want -1 or a smaller node ID", s, p)
		}
		if p >= 0 && st.Scalar[s] <= st.Scalar[p] {
			return fmt.Errorf("core: super node %d scalar %g not strictly above parent's %g",
				s, st.Scalar[s], st.Scalar[p])
		}
		if len(st.Members[s]) == 0 {
			return fmt.Errorf("core: super node %d has no members", s)
		}
		for _, m := range st.Members[s] {
			if st.NodeOf[m] != int32(s) {
				return fmt.Errorf("core: item %d in members of %d but NodeOf says %d",
					m, s, st.NodeOf[m])
			}
		}
		total += len(st.Members[s])
	}
	if total != len(st.NodeOf) {
		return fmt.Errorf("core: super tree covers %d items, want %d", total, len(st.NodeOf))
	}
	return nil
}
