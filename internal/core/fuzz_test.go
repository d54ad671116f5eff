package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/graph"
)

// FuzzReadSuperTree asserts the binary reader's contract: arbitrary
// bytes never panic and never produce an invalid tree — anything
// accepted passes Validate (the reader validates before returning, so
// a Validate failure here means that guarantee regressed), is
// parent-first, has well-formed member runs, and its roots' subtrees
// cover every item.
func FuzzReadSuperTree(f *testing.F) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	st := VertexSuperTree(MustVertexField(g, []float64{3, 1, 2, 1}))
	var valid bytes.Buffer
	if _, err := st.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("SFST"))
	f.Add([]byte("SFST\x01\xff\xff\xff\xff\xff\xff\xff\xff")) // hostile header
	f.Add([]byte{})
	f.Add(encodeTree(f, []int32{-1, 0, 1}, []float64{1, math.NaN(), 2}, []int32{0, 1, 2}))
	f.Add(encodeTree(f, []int32{-1, 2, 0}, []float64{1, 3, 2}, []int32{0, 1, 2}))
	chainParent, chainScalar, chainNodeOf := chainTree(1 << 10)
	f.Add(encodeTree(f, chainParent, chainScalar, chainNodeOf))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSuperTree(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("reader accepted an invalid tree: %v", err)
		}
		for s, p := range st.Parent {
			if p >= int32(s) {
				t.Fatalf("reader accepted node %d with parent %d", s, p)
			}
		}
		// The member runs are CSR: offsets start at 0, rise strictly
		// (no empty node) and end at NumItems, and each run ascends.
		if len(st.MemberStart) != st.Len()+1 || st.MemberStart[0] != 0 || int(st.MemberStart[st.Len()]) != st.NumItems() {
			t.Fatalf("member offsets %d long, from %d to %d, for %d nodes and %d items",
				len(st.MemberStart), st.MemberStart[0], st.MemberStart[len(st.MemberStart)-1], st.Len(), st.NumItems())
		}
		for s := int32(0); s < int32(st.Len()); s++ {
			if st.MemberStart[s+1] <= st.MemberStart[s] {
				t.Fatalf("member offsets not increasing at node %d", s)
			}
			run := st.Members(s)
			for i := 1; i < len(run); i++ {
				if run[i] <= run[i-1] {
					t.Fatalf("members of node %d not ascending: %v", s, run)
				}
			}
		}
		size := st.SubtreeSize()
		covered := 0
		for _, r := range st.Roots() {
			covered += int(size[r])
		}
		if covered != st.NumItems() {
			t.Fatalf("root subtrees cover %d of %d items", covered, st.NumItems())
		}
	})
}
