package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/query"
)

// The measures of each key set. Structural measures are the cheap
// local ones; centrality measures run batched traversals.
var (
	structural  = []string{"kcore", "onion", "degree", "triangles", "clustering", "pagerank", "katz", "ktruss"}
	centrality  = []string{"closeness", "khop", "betweenness-sampled"}
	interactive = []string{"kcore", "degree", "pagerank", "clustering", "ktruss", "closeness", "betweenness-sampled"}
)

// Key sets of the three workloads.
var (
	interactiveKeys = keys([]string{"GrQc", "PPI"}, interactive)
	refreshKeys     = keys([]string{"GrQc", "PPI"}, append(slices.Clone(structural), centrality...))
	readerKeys      = keys([]string{"Wikivote"}, structural)
	coldKeys        = keys([]string{"GrQc", "PPI", "DBLP"}, structural)
)

func keys(dss, ms []string) []query.Key {
	var out []query.Key
	for _, ds := range dss {
		for _, m := range ms {
			out = append(out, query.Key{Dataset: ds, Measure: m})
		}
	}
	return out
}

func keyLabel(k query.Key) string { return k.Dataset + "." + k.Measure }

// workloadRNG derives the request-stream generator of one workload
// from the run seed, so the traced pass draws the same inputs.
func workloadRNG(seed int64, workload string) *rand.Rand {
	h := int64(0)
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h))
}

// newEngine returns an in-process engine whose datasets are generated
// exactly as the servers generate them.
func newEngine(seed int64, store query.SnapshotStore, gens query.GenerationStore) *query.Engine {
	return query.NewEngine(query.Options{
		MaxSnapshots: 64,
		Store:        store,
		Generations:  gens,
		Loader: func(name string) (*graph.Graph, error) {
			return datasets.Generate(name, scale, seed)
		},
	})
}

// batch is one POST /api/v1/query request with its expected results.
type batch struct {
	key  query.Key
	ops  []query.Op
	body []byte // request JSON
	want []byte // expected "results" JSON
}

// vertexPartners returns the same-basis partners a correlation op may
// pair a key's measure with: the other vertex measures of the
// interactive set. Edge measures have none there.
func vertexPartners(k query.Key) []string {
	if k.Measure == "ktruss" {
		return nil
	}
	var out []string
	for _, m := range interactive {
		if m != k.Measure && m != "ktruss" {
			out = append(out, m)
		}
	}
	return out
}

func noPartners(query.Key) []string { return nil }

// buildPool analyzes every key in process and draws `variants` batches
// per key, key-major: pool[i*variants+v] belongs to keys[i]. Each
// batch holds peaks, component_of and mcc plus one of alpha_cut,
// spectrum or (when the key has partners) gci/lci. Expected results
// come from query.Engine.Resolve on the same snapshot.
func buildPool(eng *query.Engine, rng *rand.Rand, ks []query.Key, variants int, partners func(query.Key) []string) ([]*batch, error) {
	var pool []*batch
	for _, k := range ks {
		snap, err := eng.Snapshot(k)
		if err != nil {
			return nil, fmt.Errorf("analyzing %v: %w", k, err)
		}
		levels := slices.Clone(snap.Values)
		sort.Float64s(levels)
		for v := 0; v < variants; v++ {
			b, err := newBatch(eng, snap, drawOps(rng, snap, levels, partners(k)))
			if err != nil {
				snap.Release()
				return nil, err
			}
			pool = append(pool, b)
		}
		snap.Release()
	}
	return pool, nil
}

// drawOps draws one batch's operations. Cut heights come from the top
// of the field's distribution, where users look for peaks.
func drawOps(rng *rand.Rand, snap *query.Snapshot, levels []float64, partners []string) []query.Op {
	n := len(levels)
	top := func(frac float64) float64 {
		return levels[n-1-rng.Intn(max(1, int(frac*float64(n))))]
	}
	item := int32(rng.Intn(n))
	ops := []query.Op{
		{Op: query.OpPeaks, Alpha: top(0.1)},
		{Op: query.OpComponentOf, Item: item, Alpha: math.Min(snap.Values[item], top(0.5))},
		{Op: query.OpMCC, Item: int32(rng.Intn(n))},
	}
	choices := 2
	if len(partners) > 0 {
		choices = 4
	}
	switch rng.Intn(choices) {
	case 0:
		ops = append(ops, query.Op{Op: query.OpAlphaCut, Alpha: top(0.3), Limit: 20})
	case 1:
		ops = append(ops, query.Op{Op: query.OpSpectrum})
	case 2:
		ops = append(ops, query.Op{Op: query.OpGCI, MeasureJ: partners[rng.Intn(len(partners))]})
	case 3:
		ops = append(ops, query.Op{Op: query.OpLCI, MeasureJ: partners[rng.Intn(len(partners))]})
	}
	return ops
}

// newBatch encodes a request for snap's key and resolves its expected
// results in process.
func newBatch(eng *query.Engine, snap *query.Snapshot, ops []query.Op) (*batch, error) {
	color, bins := snap.Key.Color, snap.Key.Bins
	body, err := json.Marshal(query.Request{
		Dataset: snap.Key.Dataset, Measure: snap.Key.Measure,
		Color: &color, Bins: &bins, Ops: ops,
	})
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(eng.Resolve(snap, ops))
	if err != nil {
		return nil, fmt.Errorf("expected results for %v: %w", snap.Key, err)
	}
	return &batch{key: snap.Key, ops: ops, body: body, want: want}, nil
}

// warmBatch is a key's first request during setup: peaks plus a gci
// against every partner, so the serving node also caches every field
// the timed phase correlates with.
func warmBatch(eng *query.Engine, k query.Key, partners []string) (*batch, error) {
	snap, err := eng.Snapshot(k)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	ops := []query.Op{{Op: query.OpPeaks, Alpha: snap.Terrain.Tree.Scalar[0]}}
	for _, p := range partners {
		ops = append(ops, query.Op{Op: query.OpGCI, MeasureJ: p})
	}
	return newBatch(eng, snap, ops)
}

// checkQuery verifies a batch response: HTTP 200, not degraded, and
// results byte-identical to the expected ones.
func checkQuery(b *batch, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%v: status %d: %.200s", b.key, status, body)
	}
	i := bytes.LastIndex(body, []byte(`,"results":`))
	if !bytes.HasPrefix(body, []byte(`{"snapshot":`)) || i < 0 {
		return fmt.Errorf("%v: malformed response %.200s", b.key, body)
	}
	if bytes.Contains(body[:i], []byte(`"degraded":`)) {
		return fmt.Errorf("%v: degraded response %.200s", b.key, body[:i])
	}
	got := bytes.TrimSuffix(body[i+len(`,"results":`):], []byte("}\n"))
	if !bytes.Equal(got, b.want) {
		return fmt.Errorf("%v: results differ from in-process Resolve (got %d bytes, want %d)", b.key, len(got), len(b.want))
	}
	return nil
}

// checkPNG verifies an image response decodes at the requested size.
func checkPNG(status int, body []byte, w, h int) error {
	if status != http.StatusOK {
		return fmt.Errorf("terrain.png: status %d: %.200s", status, body)
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("terrain.png: %w", err)
	}
	if b := img.Bounds(); b.Dx() != w || b.Dy() != h {
		return fmt.Errorf("terrain.png: got %dx%d, want %dx%d", b.Dx(), b.Dy(), w, h)
	}
	return nil
}

// recorder collects one client's latencies (ms) per request class and
// its attempt and failure counts. Each client owns one, so recording
// takes no lock. invalid marks a run that did not exercise the path
// its workload claims, even if every answer was right.
type recorder struct {
	lat       map[string][]float64
	byKey     map[string]map[string][]float64 // class → key label → latencies
	attempted int
	failed    int
	invalid   bool
	problems  []string
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, byKey: map[string]map[string][]float64{}}
}

// add records a latency under class and, for a query, under its key.
func (r *recorder) add(class, key string, ms float64) {
	r.lat[class] = append(r.lat[class], ms)
	if key == "" {
		return
	}
	if r.byKey[class] == nil {
		r.byKey[class] = map[string][]float64{}
	}
	r.byKey[class][key] = append(r.byKey[class][key], ms)
}

// fail counts a failed request, keeping the first few reasons.
func (r *recorder) fail(err error) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
	}
}

// violate marks the run invalid, keeping the first few reasons.
func (r *recorder) violate(err error) {
	r.invalid = true
	if len(r.problems) < 10 {
		r.problems = append(r.problems, err.Error())
	}
}

// merge folds other into r.
func (r *recorder) merge(other *recorder) {
	for class, xs := range other.lat {
		r.lat[class] = append(r.lat[class], xs...)
	}
	for class, m := range other.byKey {
		if r.byKey[class] == nil {
			r.byKey[class] = map[string][]float64{}
		}
		for key, xs := range m {
			r.byKey[class][key] = append(r.byKey[class][key], xs...)
		}
	}
	r.attempted += other.attempted
	r.failed += other.failed
	r.invalid = r.invalid || other.invalid
	r.problems = append(r.problems, other.problems...)
}

// roundTrip sends one request and returns the status, the full body
// and the latency from send to last byte in milliseconds.
func roundTrip(c *http.Client, req *http.Request) (int, []byte, float64, error) {
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	return resp.StatusCode, body, ms, err
}

// query sends a batch to base and, when the answer checks out, records
// its latency under class and returns it.
func (r *recorder) query(c *http.Client, base, class string, b *batch) (float64, bool) {
	r.attempted++
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/query", bytes.NewReader(b.body))
	if err != nil {
		r.fail(err)
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	status, body, ms, err := roundTrip(c, req)
	if err == nil {
		err = checkQuery(b, status, body)
	}
	if err != nil {
		r.fail(err)
		return 0, false
	}
	r.add(class, keyLabel(b.key), ms)
	return ms, true
}

// render fetches a terrain PNG of size w×h and records its latency.
func (r *recorder) render(c *http.Client, base string, w, h int) {
	r.attempted++
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/terrain.png?w=%d&h=%d", base, w, h), nil)
	if err != nil {
		r.fail(err)
		return
	}
	status, body, ms, err := roundTrip(c, req)
	if err == nil {
		err = checkPNG(status, body, w, h)
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.add("render", "", ms)
}

// post sends a bodyless POST (invalidation) and checks for 200.
func (r *recorder) post(c *http.Client, url string) {
	r.attempted++
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		r.fail(err)
		return
	}
	status, body, _, err := roundTrip(c, req)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %.200s", url, status, body)
	}
	if err != nil {
		r.fail(err)
	}
}

// warm sends each batch once and fails on the first bad answer.
func warm(c *http.Client, base string, batches []*batch) error {
	r := newRecorder()
	for _, b := range batches {
		r.query(c, base, "warm", b)
		if r.failed > 0 {
			return fmt.Errorf("warm-up: %s", r.problems[0])
		}
	}
	return nil
}
