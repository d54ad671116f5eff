package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
)

// postprocessJagged is Algorithm 2 as the paper states it, one member
// slice per super node: the reference the flat Postprocess must match
// node for node, since super-node IDs are part of the wire format.
func postprocessJagged(t *Tree) (parent []int32, scalar []float64, members [][]int32, nodeOf []int32) {
	nodeOf = make([]int32, t.Len())
	ch := t.Children()
	type anc struct{ node, parent int32 }
	var ancestors []anc
	for _, r := range t.Roots() {
		ancestors = append(ancestors, anc{r, -1})
	}
	for head := 0; head < len(ancestors); head++ {
		a := ancestors[head]
		s := int32(len(parent))
		parent = append(parent, a.parent)
		scalar = append(scalar, t.Scalar[a.node])
		var ms []int32
		for queue := []int32{a.node}; len(queue) > 0; queue = queue[1:] {
			nq := queue[0]
			ms = append(ms, nq)
			nodeOf[nq] = s
			for _, nc := range ch[nq] {
				if t.Scalar[nc] == t.Scalar[nq] {
					queue = append(queue, nc)
				} else {
					ancestors = append(ancestors, anc{nc, s})
				}
			}
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		members = append(members, ms)
	}
	return parent, scalar, members, nodeOf
}

func TestPostprocessMatchesJaggedReference(t *testing.T) {
	var b TreeBuilder
	for seed := int64(0); seed < 40; seed++ {
		n := 1 + int(seed)*13
		var raw *Tree
		if seed%2 == 0 {
			raw = BuildVertexTree(randomTieField(seed, n, 3, 1+int(seed)%7))
		} else {
			raw = BuildEdgeTree(randomEdgeField(seed, n, 2.5, 1+int(seed)%5))
		}
		parent, scalar, members, nodeOf := postprocessJagged(raw)
		for _, st := range []*SuperTree{Postprocess(raw), b.post.postprocess(raw)} {
			if !reflect.DeepEqual(st.Parent, parent) || !reflect.DeepEqual(st.Scalar, scalar) ||
				!reflect.DeepEqual(st.NodeOf, nodeOf) {
				t.Fatalf("seed %d: parents, scalars or item mapping differ from the reference", seed)
			}
			for s := range members {
				if !reflect.DeepEqual(st.Members(int32(s)), members[s]) {
					t.Fatalf("seed %d: members of %d = %v, want %v", seed, s, st.Members(int32(s)), members[s])
				}
			}
			if err := st.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestSuperTreeChildrenAndRoots(t *testing.T) {
	st := VertexSuperTree(randomTieField(5, 300, 2, 6))
	want := make([][]int32, st.Len())
	var roots []int32
	for s, p := range st.Parent {
		if p < 0 {
			roots = append(roots, int32(s))
		} else {
			want[p] = append(want[p], int32(s))
		}
	}
	if !reflect.DeepEqual(st.Roots(), roots) {
		t.Fatalf("roots %v, want %v", st.Roots(), roots)
	}
	for s := range want {
		if got := st.Children(int32(s)); len(got) != len(want[s]) || (len(got) > 0 && !reflect.DeepEqual(got, want[s])) {
			t.Fatalf("children of %d = %v, want %v", s, got, want[s])
		}
	}
}

// TestValidateRejectsBadMemberRuns: every way a hand-built member CSR
// can fail to partition the items is an error, never a panic.
func TestValidateRejectsBadMemberRuns(t *testing.T) {
	base := func() *SuperTree {
		return &SuperTree{
			Parent:      []int32{-1, 0},
			Scalar:      []float64{1, 2},
			MemberStart: []int32{0, 2, 3},
			MemberItems: []int32{0, 2, 1},
			NodeOf:      []int32{0, 1, 0},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	for name, mutate := range map[string]func(st *SuperTree){
		"short offsets":     func(st *SuperTree) { st.MemberStart = st.MemberStart[:2] },
		"nonzero start":     func(st *SuperTree) { st.MemberStart[0] = 1 },
		"end past items":    func(st *SuperTree) { st.MemberStart[2] = 4 },
		"empty run":         func(st *SuperTree) { st.MemberStart[1] = 0 },
		"descending run":    func(st *SuperTree) { st.MemberItems[0], st.MemberItems[1] = 2, 0 },
		"duplicate item":    func(st *SuperTree) { st.MemberItems[1] = 0 },
		"item out of range": func(st *SuperTree) { st.MemberItems[1] = 3 },
		"wrong node":        func(st *SuperTree) { st.NodeOf[1] = 0 },
	} {
		st := base()
		mutate(st)
		if err := st.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, st)
		}
	}
}

// chainField is a path graph whose scalars rise along the path: its
// super tree is a chain of n single-item nodes.
func chainField(n int) *VertexField {
	b := graph.NewBuilder(n)
	values := make([]float64, n)
	for v := range values {
		values[v] = float64(v)
		if v > 0 {
			b.AddEdge(int32(v-1), int32(v))
		}
	}
	return MustVertexField(b.Build(), values)
}

// TestSuperTreeAllocsIndependentOfSize: building or decoding a super
// tree costs a fixed number of allocations, so a 2^16-node chain may
// need only a few more than a 100-node one (slice growth of the
// builder's pooled buffers on the larger input does not count: the
// builder is warmed on the same field).
func TestSuperTreeAllocsIndependentOfSize(t *testing.T) {
	const slack = 4
	small, large := chainField(100), chainField(1<<16)
	measure := func(f *VertexField) map[string]float64 {
		raw := BuildVertexTree(f)
		var enc bytes.Buffer
		if _, err := Postprocess(raw).WriteTo(&enc); err != nil {
			t.Fatal(err)
		}
		var b TreeBuilder
		return map[string]float64{
			"Postprocess": testing.AllocsPerRun(5, func() { Postprocess(raw) }),
			"ReadSuperTree": testing.AllocsPerRun(5, func() {
				if _, err := ReadSuperTree(bytes.NewReader(enc.Bytes())); err != nil {
					t.Fatal(err)
				}
			}),
			"TreeBuilder.VertexSuperTree": testing.AllocsPerRun(5, func() { b.VertexSuperTree(f) }),
		}
	}
	got, want := measure(large), measure(small)
	for name, n := range got {
		if n > want[name]+slack {
			t.Errorf("%s: %.0f allocations on a 2^16-node chain, %.0f on 100 nodes", name, n, want[name])
		}
	}
}
