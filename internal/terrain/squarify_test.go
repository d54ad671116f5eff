package terrain

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// randomTree builds a super tree from a random scalar field on a
// random graph.
func randomTree(seed int64, n int, p float64) *core.SuperTree {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	g := graph.FromEdges(n, edges)
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(rng.Intn(8))
	}
	return core.VertexSuperTree(core.MustVertexField(g, values))
}

func TestAllStrategiesProduceValidLayouts(t *testing.T) {
	for _, strategy := range []Strategy{StrategyBinary, StrategySquarified, StrategyStrip} {
		for seed := int64(0); seed < 5; seed++ {
			st := randomTree(seed, 40, 0.08)
			l := NewLayout(st, LayoutOptions{Strategy: strategy})
			if err := l.Validate(); err != nil {
				t.Fatalf("strategy %d seed %d: %v", strategy, seed, err)
			}
		}
	}
}

func TestSquarifyAreaProportionality(t *testing.T) {
	// With negligible floors, sibling cell areas must be proportional
	// to the shares.
	r := Rect{0, 0, 1, 1}
	shares := []float64{6, 3, 2, 1}
	cells := make([]Rect, len(shares))
	squarify(r, slices.Clone(shares), cells)
	total := 0.0
	for _, s := range shares {
		total += s
	}
	for i, c := range cells {
		want := shares[i] / total * r.Area()
		if math.Abs(c.Area()-want) > 1e-9 {
			t.Fatalf("cell %d area %g, want %g", i, c.Area(), want)
		}
	}
	// Cells must tile within r: total area preserved.
	var sum float64
	for _, c := range cells {
		sum += c.Area()
	}
	if math.Abs(sum-r.Area()) > 1e-9 {
		t.Fatalf("cells cover %g of %g", sum, r.Area())
	}
}

func TestStripsAreaProportionality(t *testing.T) {
	r := Rect{0, 0, 2, 1}
	shares := []float64{1, 1, 2}
	cells := make([]Rect, len(shares))
	strips(r, shares, cells, make([][2]float64, len(shares)))
	if math.Abs(cells[0].Area()-0.5) > 1e-9 || math.Abs(cells[2].Area()-1.0) > 1e-9 {
		t.Fatalf("strip areas %g %g %g", cells[0].Area(), cells[1].Area(), cells[2].Area())
	}
	// Strips must be stacked along the longer (x) axis.
	if cells[0].H() != r.H() {
		t.Fatal("strips not full-height along the longer axis")
	}
}

func TestSquarifiedBeatsStripsOnWideFanout(t *testing.T) {
	// A star graph: one root super node with many leaf children. Strips
	// degrade into slivers; squarified keeps cells squat.
	b := graph.NewBuilder(41)
	for v := int32(1); v <= 40; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	values := make([]float64, 41)
	values[0] = 0
	for i := 1; i <= 40; i++ {
		values[i] = 1
	}
	st := core.VertexSuperTree(core.MustVertexField(g, values))

	sq := NewLayout(st, LayoutOptions{Strategy: StrategySquarified})
	strip := NewLayout(st, LayoutOptions{Strategy: StrategyStrip})
	sqMean, _ := sq.AspectStats()
	stripMean, stripWorst := strip.AspectStats()
	if sqMean >= stripMean {
		t.Fatalf("squarified mean aspect %g not below strips' %g", sqMean, stripMean)
	}
	if stripWorst < 10 {
		t.Fatalf("strips worst aspect %g suspiciously good for 40 slivers", stripWorst)
	}
}

func TestSquarifyZeroShares(t *testing.T) {
	cells := make([]Rect, 3)
	squarify(Rect{0, 0, 1, 1}, []float64{3, 0, 1}, cells)
	if cells[1].Area() != 0 {
		t.Fatalf("zero share got area %g", cells[1].Area())
	}
	if math.Abs(cells[0].Area()-0.75) > 1e-9 || math.Abs(cells[2].Area()-0.25) > 1e-9 {
		t.Fatalf("areas %g, %g around the zero", cells[0].Area(), cells[2].Area())
	}
}

func TestSquarifyAllZeroFallsBack(t *testing.T) {
	cells := make([]Rect, 2)
	squarify(Rect{0, 0, 1, 1}, []float64{0, 0}, cells)
	if cells[0].Area() != 0.5 || cells[1].Area() != 0.5 {
		t.Fatalf("all-zero shares gave cells %v, want the binary split", cells)
	}
}

func TestAspectStatsEmptyLayout(t *testing.T) {
	l := &Layout{}
	if mean, worst := l.AspectStats(); mean != 0 || worst != 0 {
		t.Fatalf("empty layout stats (%g, %g)", mean, worst)
	}
}

func TestPeaksAgreeAcrossStrategies(t *testing.T) {
	// The layout strategy changes geometry only: peak sets at every α
	// must be identical (same nodes, same item counts).
	st := randomTree(13, 35, 0.1)
	binary := NewLayout(st, LayoutOptions{})
	squarified := NewLayout(st, LayoutOptions{Strategy: StrategySquarified})
	for alpha := 0.0; alpha <= 8; alpha++ {
		a, b := binary.PeaksAt(alpha), squarified.PeaksAt(alpha)
		if len(a) != len(b) {
			t.Fatalf("α=%g: %d vs %d peaks", alpha, len(a), len(b))
		}
		for i := range a {
			if a[i].Node != b[i].Node || a[i].Items != b[i].Items {
				t.Fatalf("α=%g peak %d differs: %+v vs %+v", alpha, i, a[i], b[i])
			}
		}
	}
}

func BenchmarkAblationLayoutStrategy(b *testing.B) {
	st := randomTree(5, 2000, 0.004)
	for _, bench := range []struct {
		name     string
		strategy Strategy
	}{
		{"binary", StrategyBinary},
		{"squarified", StrategySquarified},
		{"strip", StrategyStrip},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var mean, worst float64
			for i := 0; i < b.N; i++ {
				l := NewLayout(st, LayoutOptions{Strategy: bench.strategy})
				mean, worst = l.AspectStats()
			}
			b.ReportMetric(mean, "mean-aspect")
			b.ReportMetric(worst, "worst-aspect")
		})
	}
}
