package core

import (
	"fmt"
	"math"
	"slices"
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
//
// The tree is flat: every per-node list lives in one shared array
// indexed by an offsets array (CSR form), so a tree costs a fixed
// number of allocations whatever its node count. Node IDs are
// parent-first (Parent[s] < s), which Validate enforces.
type SuperTree struct {
	// Parent[s] is super node s's parent, or -1 for a root.
	Parent []int32
	// Scalar[s] is the shared scalar value of every member of s.
	Scalar []float64
	// MemberStart and MemberItems list the item IDs (vertices or
	// edges) merged into each super node: those of s are
	// MemberItems[MemberStart[s]:MemberStart[s+1]], in increasing ID
	// order. len(MemberStart) is Len()+1 and MemberStart[Len()] is
	// NumItems(). Members(s) returns the run.
	MemberStart []int32
	MemberItems []int32
	// NodeOf maps each item ID to its super node.
	NodeOf []int32

	// childStart and childList are the lazily built children in CSR
	// form with a virtual root in slot 0: the roots are
	// childList[childStart[0]:childStart[1]] and the children of s are
	// childList[childStart[s+1]:childStart[s+2]], each run in
	// increasing ID order.
	childStart []int32
	childList  []int32
	size       []int32 // lazily built: total items in each subtree
}

// Postprocess runs Algorithm 2 on a raw scalar tree: a single pass
// that groups each ancestor with its equal-scalar descendants into
// super nodes. Time complexity is O(|V|) plus sorting each super
// node's members.
func Postprocess(t *Tree) *SuperTree {
	var sc postprocessScratch
	return sc.postprocess(t)
}

// postprocessScratch is Postprocess's working memory, kept by a
// TreeBuilder across builds.
type postprocessScratch struct {
	childStart, childList []int32 // the raw tree's children, CSR with a virtual root slot
	first                 []int32 // first[s]: the raw node that started super node s
}

func (sc *postprocessScratch) postprocess(t *Tree) *SuperTree {
	n := t.Len()
	// A raw node starts a super node when it is a root or its scalar
	// differs from its parent's; otherwise it joins its parent's. So
	// one pass sizes every output array exactly.
	numSuper := 0
	for i, p := range t.Parent {
		if p < 0 || t.Scalar[i] != t.Scalar[p] {
			numSuper++
		}
	}
	st := &SuperTree{
		Parent:      make([]int32, numSuper),
		Scalar:      make([]float64, numSuper),
		MemberStart: make([]int32, numSuper+1),
		MemberItems: make([]int32, 0, n),
		NodeOf:      make([]int32, n),
	}
	sc.childStart = resize(sc.childStart, n+2)
	sc.childList = resize(sc.childList, n)
	groupBy(t.Parent, 1, sc.childStart, sc.childList)
	children := func(v int32) []int32 { return sc.childList[sc.childStart[v+1]:sc.childStart[v+2]] }

	// first is the paper's worklist of ancestors: entry s starts super
	// node s, whose parent is already recorded in st.Parent[s]. The
	// roots come first, in increasing ID order.
	first := resize(sc.first, numSuper)
	sc.first = first
	next := copy(first, sc.childList[sc.childStart[0]:sc.childStart[1]])
	for s := 0; s < next; s++ {
		st.Parent[s] = -1
	}
	items := st.MemberItems
	for s := 0; s < next; s++ {
		st.Scalar[s] = t.Scalar[first[s]]
		// BFS over the equal-scalar closure below first[s]. The
		// members run being built is the BFS queue.
		begin := len(items)
		items = append(items, first[s])
		for q := begin; q < len(items); q++ {
			v := items[q]
			st.NodeOf[v] = int32(s)
			for _, c := range children(v) {
				if t.Scalar[c] == t.Scalar[v] {
					items = append(items, c)
				} else {
					first[next], st.Parent[next] = c, int32(s)
					next++
				}
			}
		}
		slices.Sort(items[begin:])
		st.MemberStart[s+1] = int32(len(items))
	}
	st.MemberItems = items
	return st
}

// resize returns buf with length n, reallocating only when its
// capacity is short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// groupBy is a counting sort of the indexes of keys by key: with
// k = len(start)-1 groups, index i lands in group keys[i]+offset, and
// on return the indexes of group g are list[start[g]:start[g+1]] in
// increasing order. Every keys[i]+offset must lie in [0, k), and
// len(list) must be len(keys).
func groupBy(keys []int32, offset int32, start, list []int32) {
	clear(start)
	for _, key := range keys {
		start[key+offset+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	// Placing advances start[g] to the end of group g, which is the
	// start of group g+1; shifting by one slot restores the offsets.
	for i, key := range keys {
		g := key + offset
		list[start[g]] = int32(i)
		start[g]++
	}
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
}

// Len reports the number of super nodes.
func (st *SuperTree) Len() int { return len(st.Parent) }

// NumItems reports the number of underlying items (vertices or edges).
func (st *SuperTree) NumItems() int { return len(st.NodeOf) }

// Members returns the item IDs merged into super node s, in increasing
// ID order. The result aliases the tree; callers must not modify it.
func (st *SuperTree) Members(s int32) []int32 {
	return st.MemberItems[st.MemberStart[s]:st.MemberStart[s+1]]
}

// Roots returns the root super nodes in increasing ID order. The
// result is cached; callers must not modify it.
func (st *SuperTree) Roots() []int32 {
	st.buildChildren()
	return st.childList[st.childStart[0]:st.childStart[1]]
}

// Children returns the children of super node s in increasing ID
// order. The result is cached; callers must not modify it.
func (st *SuperTree) Children(s int32) []int32 {
	st.buildChildren()
	return st.childList[st.childStart[s+1]:st.childStart[s+2]]
}

func (st *SuperTree) buildChildren() {
	if st.childStart != nil {
		return
	}
	start := make([]int32, len(st.Parent)+2)
	list := make([]int32, len(st.Parent))
	groupBy(st.Parent, 1, start, list)
	st.childList, st.childStart = list, start
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
		size[s] += st.MemberStart[s+1] - st.MemberStart[s]
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
	items := make([]int32, 0, st.SubtreeSize()[s])
	stack := []int32{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		items = append(items, st.Members(v)...)
		stack = append(stack, st.Children(v)...)
	}
	slices.Sort(items)
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
// have been merged), and the member runs partition the items: each
// run is non-empty and strictly ascending, and every item appears in
// exactly the run of the node NodeOf names.
func (st *SuperTree) Validate() error {
	n := len(st.Parent)
	if len(st.Scalar) != n || len(st.MemberStart) != n+1 {
		return fmt.Errorf("core: super tree slice lengths disagree")
	}
	if st.MemberStart[0] != 0 || int(st.MemberStart[n]) != len(st.MemberItems) || len(st.MemberItems) != len(st.NodeOf) {
		return fmt.Errorf("core: super tree member runs span [%d, %d) of %d members for %d items",
			st.MemberStart[0], st.MemberStart[n], len(st.MemberItems), len(st.NodeOf))
	}
	parent, scalar, start, items, nodeOf := st.Parent, st.Scalar, st.MemberStart, st.MemberItems, st.NodeOf
	for s := 0; s < n; s++ {
		if math.IsNaN(scalar[s]) {
			return fmt.Errorf("core: super node %d has a NaN scalar", s)
		}
		p := parent[s]
		if p < -1 || int(p) >= s {
			return fmt.Errorf("core: super node %d has parent %d, want -1 or a smaller node ID", s, p)
		}
		if p >= 0 && scalar[s] <= scalar[p] {
			return fmt.Errorf("core: super node %d scalar %g not strictly above parent's %g",
				s, scalar[s], scalar[p])
		}
		if start[s+1] <= start[s] {
			return fmt.Errorf("core: super node %d has no members", s)
		}
	}
	// The run offsets rise strictly from 0 to len(items), so each
	// position belongs to one run, and a run begins exactly where the
	// previous one ends. Strictly ascending runs, each item naming its
	// own run, and as many members as items make the runs a partition.
	s, next := int32(0), int32(0)
	if n > 0 {
		next = start[1]
	}
	for i, m := range items {
		if int32(i) == next {
			s++
			next = start[s+1]
		} else if i > 0 && m <= items[i-1] {
			return fmt.Errorf("core: members of super node %d not ascending at item %d", s, m)
		}
		if uint(m) >= uint(len(nodeOf)) || nodeOf[m] != s {
			return fmt.Errorf("core: item %d in members of %d but NodeOf disagrees", m, s)
		}
	}
	return nil
}
