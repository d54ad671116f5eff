package terrain_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/terrain"
)

// goldenDigests pins the layout rectangles of every strategy and the
// contour spectrum, bit for bit, for the fields of goldenFields. The
// digests were computed by the jagged-member super tree and the
// allocating layout that the flat super tree replaced; they are the
// oracle for that rewrite, so a mismatch is a behaviour change, never a
// reason to recompute them.
var goldenDigests = map[string]string{
	"figure2/binary":      "f6ef80ce40e3d12086adeaf00e24d5ae56264b76e1d2a7cbe0d47443ae8d14af",
	"figure2/spectrum":    "4854b061c07576d374ea06ba50cfe6aa9df701b624e845cb368d118bac378e0d",
	"figure2/squarified":  "130fd563a495e92a425ecb9d134da5cdbb67dad070a244b3c08e50d13efb0f90",
	"figure2/strip":       "c0262582287556047cb5afc3c46c41ff7b91b3a6791fd0321ad598ff50268354",
	"figure3/binary":      "694daa6325bfb3545eaf8eff6a4b37d41d2df0974b27715e395e489dd99c13f2",
	"figure3/spectrum":    "4278cc3638629bd8fb7756f7100d87d9469a27846d4d4bd1f038ae6294e71c9e",
	"figure3/squarified":  "1db660b4eb0c9e4fab3b686a42d61255fab65b93ea5d950e9aeb136cb9eff3c3",
	"figure3/strip":       "0574ed5adfd32310a02e6229d410f647a4e7cb14038ef7c4961fd93c644592b9",
	"random01/binary":     "e009d536fe6068f96e9e0e5fb57b8256a03ce5a6716ec1555fe5f5e505d8b3f0",
	"random01/spectrum":   "e0e7ac3dfb42ee7c61fc371ea533975e5aa7eacca99f779e4c110d29c16b05a8",
	"random01/squarified": "8ef280671c9180392730d7e456a3dbf6f9d04cd12a8c1d0744b6e3ddf5fbb38f",
	"random01/strip":      "bdc81a72daf292f68a5d51fff81a81903c59884a21f05417977341416caea676",
	"random02/binary":     "5c556137251b2ad0a022bed81b14dcf9f25f19cd834eb40a5da2f32fc3474232",
	"random02/spectrum":   "80f794b519e25504d3bbb9b55c52cc97bec32344a29c6f27c8499903b8a36db9",
	"random02/squarified": "7be7fee0c9a7c41dd13ea40872552039c36a667e0f776a5d9d9a240c4052d977",
	"random02/strip":      "c6ebe9d58de2fecab5576b403d8ba28c8a79270cf836787b6440da6c43eb384d",
	"random03/binary":     "d128efcb7d32bf3567257056d3e93e4f2f662a26e887421efa2de5d210d53cb8",
	"random03/spectrum":   "f7407c665d573c5e24196b90d6a729fb26d0ad252305e5c33631fb40c073f2e9",
	"random03/squarified": "c7c32792f97b5e803d6903828df1aab4fe6d91210ac6c1857ecadc2dd8cc0c1e",
	"random03/strip":      "2f138ff0a2012a727eefdc8fec23a95626b352d1335690adf879e0f515dc1653",
	"random04/binary":     "f9b97e497bdc4426fb7c647e40b5f1eb643df506699a7f4d921c3b73ba561dad",
	"random04/spectrum":   "b605b3760ff23cd6039a3e2e0d96da522a22ef5f320640af4e717c8d5af42542",
	"random04/squarified": "d4c33931110f73a9ce2da05df26c13c50b8c814725584de8ef26e96d440b427c",
	"random04/strip":      "38e955e0993053de7fdc58d96edf2480d1e13f0a880e827738bd8e6475784d6d",
	"random05/binary":     "7c398b4013f0d98d76a9c7d4c625facbc6b12af57ea0b7c72f7f0bdbaf8ca27a",
	"random05/spectrum":   "8aa3d401067732ebd745ea1c65bea611c22267a938b94565e7870ec3ed0cf103",
	"random05/squarified": "58017bbf828d1ed7070c7f60252d2402311c8d596b83f7d608cef767a5a4c0a6",
	"random05/strip":      "f73d518ad6e417607522a887a48d4ad6ee360df838a405427d9f9bfe4ae238c7",
	"random06/binary":     "ae04b2f45fbab62ea71abda499614e8d5ecb704ff1ddf550e4a7261939c2e0c2",
	"random06/spectrum":   "762c8e8804d02202fc48d01fdff93b8da3eb2b5debdaedbd67a0034813b1fe16",
	"random06/squarified": "eb3f6ad5b891f7a79437b792f77041c16888b93cfba7498f76e81e711d109aa5",
	"random06/strip":      "1633d7975b34d26a868ce8609b821f112a6a095da8179694ec2cbeea6da6be53",
	"random07/binary":     "3b4a00d36573b7d7573d29bcf6fdc184e8fe139f4a1eadc526b58dd5d4434871",
	"random07/spectrum":   "53188a859cd15c6e509e0cedc5d3cfaa3aa67a3778eaeb67ae9217e44d275e95",
	"random07/squarified": "4d919b78d7ca9c399898759c60a4e05e628701b67fa1f0995f34286da841b1c8",
	"random07/strip":      "96ca0b8dc4270b450cf0183c9cb140b61f3f91db0772c91bc40166da09e83d7b",
	"random08/binary":     "f1c53eb725aae35cf6990b379b79cfa8a7b736dbc3bc065a36c7b7afff602433",
	"random08/spectrum":   "8f4d96f03240139c5724fefd3e1488319ee8e2dbc9c2ca312a5d29fa1630ee91",
	"random08/squarified": "4d59fb2896300fefaac461922a71d6e5974864e96f426fe92ecc398898cc566c",
	"random08/strip":      "b4892545126e03310f31d96b3173423f6e0d8d6d6c24cc9a12c55f068a587ce7",
	"random09/binary":     "a0a827511cc02122cc82e7c92b971a4cc80034b358c2d61d136a0f84197ab005",
	"random09/spectrum":   "4c545d79d73934993e881ca87f03c0c89d311120e7777ff3544cff94fba0230d",
	"random09/squarified": "e87403af53ffbad44a9e243fe507b9a5ae41da26d91bce4f409ae23d893b0951",
	"random09/strip":      "f8c31ff2a39d7851be6a147324eabc323c1526ab416f0bc6ec46b72626348bf9",
	"random10/binary":     "ae38e280d93dba4e07928b4a8c4c801ed36a0819cabd64f4bd4eccd219ebd962",
	"random10/spectrum":   "eca90c45d17f93bc430ae176ab15af353236500b53ab6500fa28e09442ea9c19",
	"random10/squarified": "ce4e0a476c2065deeef39160766b8664e6cb6cf477797bd8c5f5a4c7408df1ac",
	"random10/strip":      "d7ba73c9c74a87397bf8fb68a7fdf302480527dfa4f939addc13915245214f82",
}

type goldenField struct {
	name string
	f    *core.VertexField
}

// goldenFields returns the paper's Figure 2 and Figure 3 fields (as
// reconstructed in internal/core's paper-example tests) and ten seeded
// random fields whose values repeat and include both signed zeros.
func goldenFields() []goldenField {
	b := graph.NewBuilder(9)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 4}, {0, 4}, {3, 5}, {4, 6}, {6, 5}, {6, 7}, {7, 8}} {
		b.AddEdge(e[0], e[1])
	}
	fig2 := core.MustVertexField(b.Build(), []float64{5, 4, 3, 4.5, 3.5, 2.6, 2, 1.5, 1})

	b = graph.NewBuilder(5)
	for _, e := range [][2]int32{{0, 2}, {1, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	fig3 := core.MustVertexField(b.Build(), []float64{2, 2, 1, 1, 1})

	out := []goldenField{{"figure2", fig2}, {"figure3", fig3}}
	negZero := math.Copysign(0, -1)
	pool := []float64{negZero, 0, 1, 1, 2, 3.5, -2, 7}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + int(seed)*37
		b := graph.NewBuilder(n)
		edges := n * 3 / 2
		if seed%2 == 0 {
			edges = n / 2
		}
		for i := 0; i < edges; i++ {
			if u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n)); u != v {
				b.AddEdge(u, v)
			}
		}
		if seed%2 == 0 {
			// A sparse graph plus a low hub gives the hub's super node
			// a wide fan-out of children.
			for i := 0; i < n/3; i++ {
				if v := rng.Int31n(int32(n)); v != 0 {
					b.AddEdge(0, v)
				}
			}
		}
		values := make([]float64, n)
		for i := range values {
			switch {
			case seed%2 == 1:
				values[i] = pool[rng.Intn(len(pool))]
			case rng.Intn(10) == 0:
				values[i] = pool[rng.Intn(2)]
			default:
				values[i] = math.Round(rng.NormFloat64()*10) / 10
			}
		}
		if seed%2 == 0 {
			values[0] = -5
		}
		out = append(out, goldenField{fmt.Sprintf("random%02d", seed), core.MustVertexField(b.Build(), values)})
	}
	return out
}

// digestFloats hashes the IEEE-754 bits of vals, so -0 and +0 differ.
func digestFloats(vals []float64) string {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func rectsDigest(l *terrain.Layout) string {
	vals := make([]float64, 0, 4*len(l.Rects))
	for _, r := range l.Rects {
		vals = append(vals, r.X0, r.Y0, r.X1, r.Y1)
	}
	return digestFloats(vals)
}

func spectrumDigest(sp *contour.Spectrum) string {
	vals := append([]float64(nil), sp.Levels...)
	for i := range sp.Components {
		vals = append(vals, float64(sp.Components[i]), float64(sp.Items[i]))
	}
	return digestFloats(vals)
}

func TestGoldenLayoutAndSpectrumDigests(t *testing.T) {
	strategies := []struct {
		name     string
		strategy terrain.Strategy
	}{
		{"binary", terrain.StrategyBinary},
		{"squarified", terrain.StrategySquarified},
		{"strip", terrain.StrategyStrip},
	}
	got := map[string]string{}
	for _, gf := range goldenFields() {
		st := core.VertexSuperTree(gf.f)
		for _, s := range strategies {
			got[gf.name+"/"+s.name] = rectsDigest(terrain.NewLayout(st, terrain.LayoutOptions{Strategy: s.strategy}))
		}
		got[gf.name+"/spectrum"] = spectrumDigest(contour.NewSpectrum(st))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := goldenDigests[k]; !ok || want != got[k] {
			t.Errorf("%s: digest %s, want %q", k, got[k], want)
		}
	}
	if len(goldenDigests) != len(got) {
		t.Errorf("%d golden digests for %d cases", len(goldenDigests), len(got))
	}
}
