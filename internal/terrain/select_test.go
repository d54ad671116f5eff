package terrain

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// selectField: two K4s bridged, clear two-peak structure.
func selectField() (*core.SuperTree, *Layout) {
	b := graph.NewBuilder(9)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j)
			b.AddEdge(i+4, j+4)
		}
	}
	b.AddEdge(3, 8)
	b.AddEdge(8, 4)
	g := b.Build()
	vals := []float64{3, 3, 3, 3, 3, 3, 3, 3, 1}
	st := core.VertexSuperTree(core.MustVertexField(g, vals))
	return st, NewLayout(st, LayoutOptions{})
}

func TestNodeAtPointInsidePeak(t *testing.T) {
	st, l := selectField()
	// Center of each peak rect must resolve to that peak's node (or a
	// descendant — here peaks are leaves).
	for _, p := range l.PeaksAt(3) {
		cx := (p.Bounds.X0 + p.Bounds.X1) / 2
		cy := (p.Bounds.Y0 + p.Bounds.Y1) / 2
		got := l.NodeAtPoint(cx, cy)
		if got < 0 {
			t.Fatalf("point (%g,%g) inside a peak resolved to nothing", cx, cy)
		}
		// The resolved node must lie in the peak's subtree.
		inSubtree := false
		for s := got; s >= 0; s = st.Parent[s] {
			if s == p.Node {
				inSubtree = true
				break
			}
		}
		if !inSubtree {
			t.Errorf("point resolved to node %d outside peak subtree %d", got, p.Node)
		}
	}
}

func TestNodeAtPointOutside(t *testing.T) {
	_, l := selectField()
	if got := l.NodeAtPoint(5, 5); got != -1 {
		t.Errorf("far point resolved to node %d, want -1", got)
	}
}

// TestNodeAtPointMatchesRootWalk checks NodeAtPoint against a
// reference that measures each node's depth by walking to its root.
func TestNodeAtPointMatchesRootWalk(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		st, _ := randomSuperTree(seed, 60, 8)
		l := NewLayout(st, LayoutOptions{})
		depth := make([]int, st.Len())
		for s := range depth {
			for p := st.Parent[s]; p >= 0; p = st.Parent[p] {
				depth[s]++
			}
		}
		want := func(x, y float64) int32 {
			best, bestDepth := int32(-1), -1
			for s, r := range l.Rects {
				if r.Contains(x, y) && depth[s] > bestDepth {
					best, bestDepth = int32(s), depth[s]
				}
			}
			return best
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			x, y := rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1
			if got, w := l.NodeAtPoint(x, y), want(x, y); got != w {
				t.Fatalf("seed %d: NodeAtPoint(%g, %g) = %d, want %d", seed, x, y, got, w)
			}
		}
	}
}

func TestItemsInRectWholeSquare(t *testing.T) {
	st, l := selectField()
	items := l.ItemsInRect(Rect{0, 0, 1, 1})
	if len(items) != st.NumItems() {
		t.Fatalf("whole-square selection has %d items, want %d", len(items), st.NumItems())
	}
	want := make([]int32, st.NumItems())
	for i := range want {
		want[i] = int32(i)
	}
	if !reflect.DeepEqual(items, want) {
		t.Errorf("items = %v", items)
	}
}

func TestItemsInRectSinglePeak(t *testing.T) {
	_, l := selectField()
	peaks := l.PeaksAt(3)
	if len(peaks) != 2 {
		t.Fatalf("want 2 peaks, got %d", len(peaks))
	}
	// Shrink the selection strictly inside one peak.
	p := peaks[0].Bounds
	inset := Rect{
		p.X0 + 0.25*p.W(), p.Y0 + 0.25*p.H(),
		p.X1 - 0.25*p.W(), p.Y1 - 0.25*p.H(),
	}
	items := l.ItemsInRect(inset)
	// Must contain exactly one K4's vertices (4 items), possibly plus
	// nothing else: the two peaks are disjoint rects.
	if len(items) != 4 {
		t.Errorf("peak selection has %d items: %v, want 4", len(items), items)
	}
}

func TestItemsInRectEmpty(t *testing.T) {
	_, l := selectField()
	if items := l.ItemsInRect(Rect{2, 2, 3, 3}); len(items) != 0 {
		t.Errorf("off-canvas selection returned %v", items)
	}
}

func TestPeakAtPoint(t *testing.T) {
	_, l := selectField()
	peaks := l.PeaksAt(3)
	p := peaks[0]
	cx := (p.Bounds.X0 + p.Bounds.X1) / 2
	cy := (p.Bounds.Y0 + p.Bounds.Y1) / 2
	got := l.PeakAtPoint(cx, cy, 3)
	if got == nil {
		t.Fatal("peak center resolved to no peak")
	}
	if got.Node != p.Node {
		t.Errorf("resolved peak %d, want %d", got.Node, p.Node)
	}
	if miss := l.PeakAtPoint(5, 5, 3); miss != nil {
		t.Errorf("off-canvas point resolved to peak %+v", miss)
	}
}

func TestSelectionDrivesLinkedDisplay(t *testing.T) {
	// End-to-end linked-display flow: select a peak, extract its
	// induced subgraph, confirm it is the dense K4.
	b := graph.NewBuilder(9)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j)
			b.AddEdge(i+4, j+4)
		}
	}
	b.AddEdge(3, 8)
	b.AddEdge(8, 4)
	g := b.Build()
	vals := []float64{3, 3, 3, 3, 3, 3, 3, 3, 1}
	st := core.VertexSuperTree(core.MustVertexField(g, vals))
	l := NewLayout(st, LayoutOptions{})

	p := l.PeaksAt(3)[0]
	items := st.SubtreeItems(p.Node)
	sub, _ := graph.InducedSubgraph(g, items)
	if sub.NumVertices() != 4 || sub.NumEdges() != 6 {
		t.Errorf("selected subgraph V=%d E=%d, want the K4 (4, 6)",
			sub.NumVertices(), sub.NumEdges())
	}
}
