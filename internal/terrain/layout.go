// Package terrain converts a super scalar tree into the paper's
// terrain visualization (Section II-E): every tree node becomes a
// nested 2D boundary whose enclosed area is proportional to its
// subtree size, boundaries are lifted to the height of their node's
// scalar value, and walls connect neighboring boundaries. peakα
// regions — the terrain areas above a height-α cut — correspond
// one-to-one to maximal α-connected components.
//
// The package produces resolution-independent geometry (nested
// rectangles plus heights); the render package turns it into PNG, SVG,
// and OBJ artifacts.
package terrain

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
)

// Rect is an axis-aligned rectangle in layout space.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// W reports the rectangle's width.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H reports the rectangle's height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Area reports the rectangle's area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Contains reports whether the point (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// LayoutOptions configures the nested-boundary layout.
type LayoutOptions struct {
	// Margin is the fraction of each boundary's extent kept as a rim
	// between the boundary and its children, which becomes the sloped
	// "wall" area of the rendered terrain. Defaults to 0.08.
	Margin float64
	// MinShare is the minimum fraction of the parent's span allotted
	// to any child, so tiny subtrees (whose boundaries "degenerate to
	// points" in the paper) remain visible. Defaults to 0.02.
	MinShare float64
	// Strategy selects the child-placement algorithm (binary
	// subdivision, squarified, or strips). Default StrategyBinary.
	Strategy Strategy
}

func (o *LayoutOptions) fill() {
	if o.Margin <= 0 {
		o.Margin = 0.08
	}
	if o.MinShare <= 0 {
		o.MinShare = 0.02
	}
}

// Layout is the 2D nested-boundary layout of a super scalar tree.
// Rects[s] is super node s's boundary; children boundaries are fully
// contained in their parent's. Height[s] is the node's scalar value.
type Layout struct {
	ST     *core.SuperTree
	Rects  []Rect
	Height []float64
}

// NewLayout lays out the super tree in the unit square [0,1]².
// Each root's boundary area is proportional to its subtree size;
// within a boundary, child boundaries (laid along the longer axis,
// largest first) receive shares proportional to their subtree sizes,
// with a share for the node's own members left as exposed plateau.
//
// Beyond the layout itself, a call allocates only one scratch sized
// to the largest fan-out, whatever the node count.
func NewLayout(st *core.SuperTree, opts LayoutOptions) *Layout {
	opts.fill()
	l := &Layout{
		ST:     st,
		Rects:  make([]Rect, st.Len()),
		Height: make([]float64, st.Len()),
	}
	copy(l.Height, st.Scalar)

	sizes := st.SubtreeSize()
	roots := st.Roots()
	// Every node's children plus its plateau share fit in the scratch.
	fan := len(roots)
	for s := range st.Parent {
		fan = max(fan, len(st.Children(int32(s)))+1)
	}
	sc := newLayoutScratch(fan, opts.Strategy)
	// Partition the unit square among roots.
	shares := sc.shares[:len(roots)]
	for i, r := range roots {
		shares[i] = float64(sizes[r])
	}
	cells := sc.partition(Rect{0, 0, 1, 1}, shares, opts)
	for i, r := range roots {
		l.Rects[r] = cells[i]
	}
	// A validated tree is parent-first (Parent[s] < s), so a pass in ID
	// order reaches every node after its boundary is placed, without a
	// call stack as deep as the tree (near-chains for continuous fields).
	for s := range st.Parent {
		l.layoutChildren(int32(s), opts, sizes, sc)
	}
	return l
}

// layoutScratch is NewLayout's working memory for one node's children:
// their order, their shares and their cells, plus the span list of the
// strip strategy.
type layoutScratch struct {
	order  []int32
	shares []float64
	cells  []Rect
	spans  [][2]float64 // StrategyStrip only
}

func newLayoutScratch(n int, strategy Strategy) *layoutScratch {
	sc := &layoutScratch{
		order:  make([]int32, n),
		shares: make([]float64, n),
		cells:  make([]Rect, n),
	}
	if strategy == StrategyStrip {
		sc.spans = make([][2]float64, n)
	}
	return sc
}

// partition floors shares (a prefix of sc.shares) and subdivides r
// among them under the chosen strategy, returning the cells parallel
// to shares. The cells alias the scratch until the next call.
func (sc *layoutScratch) partition(r Rect, shares []float64, opts LayoutOptions) []Rect {
	floorShares(shares, opts.MinShare)
	cells := sc.cells[:len(shares)]
	switch opts.Strategy {
	case StrategySquarified:
		squarify(r, shares, cells)
	case StrategyStrip:
		strips(r, shares, cells, sc.spans[:len(shares)])
	default:
		partition(r, shares, cells)
	}
	return cells
}

// layoutChildren places node s's children inside its boundary.
func (l *Layout) layoutChildren(s int32, opts LayoutOptions, sizes []int32, sc *layoutScratch) {
	ch := l.ST.Children(s)
	if len(ch) == 0 {
		return
	}
	outer := l.Rects[s]
	m := opts.Margin * minf(outer.W(), outer.H())
	inner := Rect{outer.X0 + m, outer.Y0 + m, outer.X1 - m, outer.Y1 - m}
	if inner.W() <= 0 || inner.H() <= 0 {
		// Degenerate: give children the (tiny) outer rect directly.
		inner = outer
	}
	// Order children by subtree size descending (stable by ID).
	order := sc.order[:len(ch)]
	copy(order, ch)
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(sizes[b], sizes[a]) })

	// Shares: children by subtree size, plus the node's own members as
	// a trailing plateau share (exposed floor of the parent).
	shares := sc.shares[:len(order)+1]
	for i, c := range order {
		shares[i] = float64(sizes[c])
	}
	shares[len(order)] = float64(len(l.ST.Members(s)))

	cells := sc.partition(inner, shares, opts)
	for i, c := range order {
		l.Rects[c] = cells[i]
	}
}

// floorShares normalizes shares in place and applies a minimum so tiny
// subtrees (whose boundaries "degenerate to points" in the paper) stay
// visible.
func floorShares(shares []float64, minShare float64) {
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total == 0 {
		for i := range shares {
			shares[i] = 1
		}
		return
	}
	for i, s := range shares {
		v := s / total
		if v > 0 && v < minShare {
			v = minShare
		}
		shares[i] = v
	}
}

// partition recursively subdivides r into len(shares) cells with areas
// proportional to shares, writing them to out (parallel to shares):
// the share list is split into two runs of roughly equal weight and r
// is cut along its longer axis.
func partition(r Rect, shares []float64, out []Rect) {
	if len(shares) == 0 {
		return
	}
	if len(shares) == 1 {
		out[0] = r
		return
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total == 0 {
		// All-zero run: split evenly in half by count.
		mid := len(shares) / 2
		a, b := cut(r, 0.5)
		partition(a, shares[:mid], out[:mid])
		partition(b, shares[mid:], out[mid:])
		return
	}
	// Find the split point closest to half the weight (at least one
	// element on each side).
	half := total / 2
	acc := 0.0
	mid := 1
	bestDiff := total
	for i := 0; i < len(shares)-1; i++ {
		acc += shares[i]
		if d := abs(acc - half); d < bestDiff {
			bestDiff = d
			mid = i + 1
		}
	}
	left := 0.0
	for _, s := range shares[:mid] {
		left += s
	}
	a, b := cut(r, left/total)
	partition(a, shares[:mid], out[:mid])
	partition(b, shares[mid:], out[mid:])
}

// cut splits r along its longer axis at fraction f.
func cut(r Rect, f float64) (Rect, Rect) {
	if r.W() >= r.H() {
		x := r.X0 + f*r.W()
		return Rect{r.X0, r.Y0, x, r.Y1}, Rect{x, r.Y0, r.X1, r.Y1}
	}
	y := r.Y0 + f*r.H()
	return Rect{r.X0, r.Y0, r.X1, y}, Rect{r.X0, y, r.X1, r.Y1}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// splitSpan divides [lo, hi] into len(shares) consecutive intervals
// written to out, with widths proportional to shares, each at least
// minShare of the span (zero-share slots stay empty but keep ordering).
func splitSpan(lo, hi float64, shares []float64, minShare float64, out [][2]float64) {
	span := hi - lo
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total == 0 {
		// All-zero shares: split evenly.
		w := span / float64(len(shares))
		for i := range out {
			out[i] = [2]float64{lo + float64(i)*w, lo + float64(i+1)*w}
		}
		return
	}
	// Apply the floor, then renormalize the remainder. The floored
	// share is recomputed in the second pass, so nothing is allocated.
	floored := func(s float64) float64 {
		if f := s / total; !(f > 0 && f < minShare) {
			return f
		}
		return minShare
	}
	var adjTotal float64
	for _, s := range shares {
		adjTotal += floored(s)
	}
	x := lo
	for i, s := range shares {
		w := span * floored(s) / adjTotal
		out[i] = [2]float64{x, x + w}
		x += w
	}
	out[len(out)-1][1] = hi // absorb rounding
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Peak is a peakα of Definition 6: the terrain region within one
// boundary at cut height α, corresponding to one maximal α-connected
// component.
type Peak struct {
	// Node is the super node rooting the peak's subtree.
	Node int32
	// Bounds is the peak's boundary rectangle.
	Bounds Rect
	// Alpha is the cut height that produced the peak.
	Alpha float64
	// Top is the maximum scalar inside the peak.
	Top float64
	// Items is the number of underlying items (vertices/edges) in the
	// peak's maximal α-connected component.
	Items int
}

// PeaksAt returns the peakα regions for the cut height α, sorted by
// descending Top then descending Items, so the "highest peak" — the
// densest component in the k-core reading — comes first.
func (l *Layout) PeaksAt(alpha float64) []Peak {
	st := l.ST
	sizes := st.SubtreeSize()
	top := subtreeTops(st)
	var peaks []Peak
	for _, s := range st.ComponentRootsAt(alpha) {
		peaks = append(peaks, Peak{
			Node:   s,
			Bounds: l.Rects[s],
			Alpha:  alpha,
			Top:    top[s].value,
			Items:  int(sizes[s]),
		})
	}
	sort.SliceStable(peaks, func(i, j int) bool {
		if peaks[i].Top != peaks[j].Top {
			return peaks[i].Top > peaks[j].Top
		}
		return peaks[i].Items > peaks[j].Items
	})
	return peaks
}

// subtreeTop is the largest scalar in a subtree and the smallest item
// ID carrying it.
type subtreeTop struct {
	value float64
	item  int32
}

// subtreeTops returns each super node's subtree top in one reverse-ID
// pass (a validated tree is parent-first). Among items whose scalars
// compare equal at the maximum (-0 and +0), the smallest item ID
// decides the value, as a scan of the subtree's items in ID order
// would.
func subtreeTops(st *core.SuperTree) []subtreeTop {
	top := make([]subtreeTop, st.Len())
	for s := range top {
		top[s] = subtreeTop{st.Scalar[s], st.Members(int32(s))[0]}
	}
	for s := len(top) - 1; s >= 0; s-- {
		p := st.Parent[s]
		if p < 0 {
			continue
		}
		if t := top[s]; t.value > top[p].value || (t.value == top[p].value && t.item < top[p].item) {
			top[p] = t
		}
	}
	return top
}

// Validate checks layout invariants: every child rectangle nested in
// its parent's, sibling rectangles disjoint, and all within [0,1]².
func (l *Layout) Validate() error {
	const eps = 1e-9
	st := l.ST
	for s := 0; s < st.Len(); s++ {
		r := l.Rects[s]
		if r.X0 < -eps || r.Y0 < -eps || r.X1 > 1+eps || r.Y1 > 1+eps || r.W() < -eps || r.H() < -eps {
			return fmt.Errorf("terrain: rect %d = %+v out of unit square", s, r)
		}
		if p := st.Parent[s]; p >= 0 {
			pr := l.Rects[p]
			if r.X0 < pr.X0-eps || r.Y0 < pr.Y0-eps || r.X1 > pr.X1+eps || r.Y1 > pr.Y1+eps {
				return fmt.Errorf("terrain: rect %d = %+v escapes parent %d = %+v", s, r, p, pr)
			}
		}
	}
	// Sibling disjointness.
	for s := int32(0); s < int32(st.Len()); s++ {
		ch := st.Children(s)
		for i := 0; i < len(ch); i++ {
			for j := i + 1; j < len(ch); j++ {
				a, b := l.Rects[ch[i]], l.Rects[ch[j]]
				if a.X0 < b.X1-eps && b.X0 < a.X1-eps && a.Y0 < b.Y1-eps && b.Y0 < a.Y1-eps {
					return fmt.Errorf("terrain: sibling rects %d and %d overlap", ch[i], ch[j])
				}
			}
		}
	}
	return nil
}
