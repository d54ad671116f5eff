package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestSuperTreeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		st := VertexSuperTree(randomField(seed, 80, 2.5, 6))
		var buf bytes.Buffer
		n, err := st.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadSuperTree(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Parent, st.Parent) {
			t.Fatal("parents differ after round trip")
		}
		if !reflect.DeepEqual(got.Scalar, st.Scalar) {
			t.Fatal("scalars differ after round trip")
		}
		if !reflect.DeepEqual(got.NodeOf, st.NodeOf) {
			t.Fatal("item mapping differs after round trip")
		}
		if !reflect.DeepEqual(got.MemberStart, st.MemberStart) || !reflect.DeepEqual(got.MemberItems, st.MemberItems) {
			t.Fatal("members differ after round trip")
		}
		// Behavior equivalence: components at a few α values.
		for _, alpha := range []float64{0, 2, 4} {
			if !reflect.DeepEqual(got.ComponentsAt(alpha), st.ComponentsAt(alpha)) {
				t.Fatalf("seed %d: components differ at α=%g", seed, alpha)
			}
		}
	}
}

func TestSuperTreeRoundTripEmpty(t *testing.T) {
	st := VertexSuperTree(MustVertexField(graph.NewBuilder(0).Build(), nil))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSuperTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.NumItems() != 0 {
		t.Errorf("round-tripped empty tree: %d/%d", got.Len(), got.NumItems())
	}
}

func TestReadSuperTreeBadMagic(t *testing.T) {
	if _, err := ReadSuperTree(strings.NewReader("NOPE....")); err == nil {
		t.Error("want error for bad magic")
	}
}

func TestReadSuperTreeTruncated(t *testing.T) {
	st := VertexSuperTree(randomField(1, 30, 2, 4))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 5, 9, len(data) / 2, len(data) - 1} {
		if _, err := ReadSuperTree(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestReadSuperTreeBadVersion(t *testing.T) {
	st := VertexSuperTree(randomField(2, 20, 2, 4))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := ReadSuperTree(bytes.NewReader(data)); err == nil {
		t.Error("want error for unsupported version")
	}
}

func TestReadSuperTreeCorruptMapping(t *testing.T) {
	st := VertexSuperTree(randomField(3, 20, 2, 4))
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the last NodeOf entry to an out-of-range super node.
	data[len(data)-4] = 0xFF
	data[len(data)-3] = 0xFF
	data[len(data)-2] = 0xFF
	data[len(data)-1] = 0x7F
	if _, err := ReadSuperTree(bytes.NewReader(data)); err == nil {
		t.Error("want error for out-of-range item mapping")
	}
}

// encodeTree writes a hand-built tree in the binary format without
// validating it, so tests can feed the reader trees Postprocess never
// produces.
func encodeTree(tb testing.TB, parent []int32, scalar []float64, nodeOf []int32) []byte {
	tb.Helper()
	var buf bytes.Buffer
	st := &SuperTree{Parent: parent, Scalar: scalar, NodeOf: nodeOf}
	if _, err := st.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// singletonMembers returns the member runs of n super nodes holding
// one item each, item s in node s.
func singletonMembers(n int) (start, items []int32) {
	start = make([]int32, n+1)
	items = make([]int32, n)
	for s := range items {
		items[s] = int32(s)
		start[s+1] = int32(s + 1)
	}
	return start, items
}

// chainTree is a path of n single-item super nodes with strictly
// increasing scalars: the deepest tree n nodes can form.
func chainTree(n int) (parent []int32, scalar []float64, nodeOf []int32) {
	parent = make([]int32, n)
	scalar = make([]float64, n)
	nodeOf = make([]int32, n)
	for s := range parent {
		parent[s] = int32(s) - 1
		scalar[s] = float64(s)
		nodeOf[s] = int32(s)
	}
	return parent, scalar, nodeOf
}

func TestReadSuperTreeDeepChain(t *testing.T) {
	const n = 1 << 18
	parent, scalar, nodeOf := chainTree(n)
	data := encodeTree(t, parent, scalar, nodeOf)
	st, err := ReadSuperTree(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != n || st.NumItems() != n {
		t.Fatalf("decoded %d nodes / %d items, want %d", st.Len(), st.NumItems(), n)
	}
	if got := st.SubtreeSize()[0]; got != n {
		t.Errorf("root subtree size %d, want %d", got, n)
	}
}

// TestReadSuperTreeRejectsNaNScalar: NaN fails every comparison, so a
// monotonicity check alone lets it through.
func TestReadSuperTreeRejectsNaNScalar(t *testing.T) {
	parent, scalar, nodeOf := []int32{-1, 0, 1}, []float64{1, math.NaN(), 2}, []int32{0, 1, 2}
	if _, err := ReadSuperTree(bytes.NewReader(encodeTree(t, parent, scalar, nodeOf))); err == nil {
		t.Error("reader accepted a tree with a NaN scalar")
	}
	start, items := singletonMembers(3)
	st := &SuperTree{Parent: parent, Scalar: scalar, NodeOf: nodeOf, MemberStart: start, MemberItems: items}
	if err := st.Validate(); err == nil {
		t.Error("Validate accepted a tree with a NaN scalar")
	}
}

// TestReadSuperTreeRejectsChildBelowParent: node 1's parent is node 2.
// The tree is acyclic and monotone, but the reverse scans of
// SubtreeSize and Persistences would visit node 1 before its parent
// (the root's subtree size would come out as 2 of 3 items).
func TestReadSuperTreeRejectsChildBelowParent(t *testing.T) {
	parent, scalar, nodeOf := []int32{-1, 2, 0}, []float64{1, 3, 2}, []int32{0, 1, 2}
	if _, err := ReadSuperTree(bytes.NewReader(encodeTree(t, parent, scalar, nodeOf))); err == nil {
		t.Error("reader accepted a tree whose child ID is below its parent's")
	}
	start, items := singletonMembers(3)
	st := &SuperTree{Parent: parent, Scalar: scalar, NodeOf: nodeOf, MemberStart: start, MemberItems: items}
	if err := st.Validate(); err == nil {
		t.Error("Validate accepted a tree whose child ID is below its parent's")
	}
}
