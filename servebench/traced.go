package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	scalarfield "repro"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/correlation"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/terrain"
)

// stageSumTolerance bounds how far the per-stage medians of an analysis
// may sum from the whole-miss median.
const stageSumTolerance = 0.10

// renderReps is how many terrain PNGs one traced pass renders, and
// refreshReps how many times it replays the refresh writer.
const renderReps, refreshReps = 10, 3

// tracedBatchStride thins the interactive batches the traced pass
// replays to every eighth.
const tracedBatchStride = 8

// tracedRun holds the traced pass's inputs and its outcome counts.
type tracedRun struct {
	cfg    config
	tr     *tracer
	graphs map[string]*graph.Graph
	tb     core.TreeBuilder

	// refresh: full misses after invalidation, plus the stage replay
	engR   *query.Engine
	storeR *query.DiskStore

	// cold-scan: encoded snapshots, their files and tree sections
	engC   *query.Engine
	storeC *query.DiskStore
	cold   []coldInput

	// interactive: hit batches, their snapshots and correlation fields
	engI     *query.Engine
	poolI    []*batch
	snapsI   map[query.Key]*query.Snapshot
	fields   map[query.Key][]float64
	hit, fwd *query.Handler

	attempted, failed int
	problems          []string
}

type coldInput struct {
	key   query.Key
	enc   []byte // encoded snapshot container
	tree  []byte // the super tree alone, as SuperTree.WriteTo writes it
	path  string // the snapshot's file in the mmap store
	check *batch // a cold-scan batch whose answers each decode must give
}

// runTraced replays the inputs of all three workloads in process,
// timing each layer's public functions in spans, for -seconds (at least
// one full pass), and reports the per-layer metrics.
func runTraced(cfg config) (*result, error) {
	r := &tracedRun{cfg: cfg, tr: newTracer(), graphs: map[string]*graph.Graph{}}
	srv, err := r.setUp()
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Passes repeat while another one fits before the deadline.
	deadline := time.Now().Add(cfg.seconds)
	for last := time.Duration(0); r.tr.pass == 0 || time.Now().Add(last).Before(deadline); r.tr.pass++ {
		start := time.Now()
		root := r.tr.begin("pass", "", -1)
		for _, phase := range []func(int) error{r.generate, r.refresh, r.coldScan, r.interactive, r.render} {
			if err := phase(root); err != nil {
				return nil, err
			}
		}
		r.tr.end(root)
		last = time.Since(start)
	}
	r.tr.pass--
	return r.result(), nil
}

// setUp generates the datasets and analyzes every key once (untimed),
// drawing the interactive and cold-scan batches exactly as the
// end-to-end runs draw them.
func (r *tracedRun) setUp() (*httptest.Server, error) {
	seed := r.cfg.seed
	for _, ds := range []string{"GrQc", "PPI", "DBLP"} {
		g, err := datasets.Generate(ds, scale, seed)
		if err != nil {
			return nil, err
		}
		r.graphs[ds] = g
	}
	engine := func() *query.Engine {
		e := newEngine(seed, nil, nil)
		for name, g := range r.graphs {
			e.RegisterDataset(name, g)
		}
		return e
	}
	store := func(name string, mmap bool) (*query.DiskStore, string, error) {
		dir := filepath.Join(r.cfg.outDir, name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
		s, err := query.NewDiskStoreOptions(dir, query.DiskStoreOptions{MmapGraphs: mmap})
		return s, dir, err
	}
	var err error

	r.engR = engine()
	if r.storeR, _, err = store("trace-refresh-store", false); err != nil {
		return nil, err
	}

	r.engC = engine()
	var coldDir string
	if r.storeC, coldDir, err = store("trace-cold-store", true); err != nil {
		return nil, err
	}
	const coldVariants = 6
	coldPool, err := buildPool(r.engC, workloadRNG(seed, "cold-scan"), coldKeys, coldVariants, noPartners)
	if err != nil {
		return nil, err
	}
	for i, k := range coldKeys {
		snap, err := r.engC.Snapshot(k)
		if err != nil {
			return nil, err
		}
		var enc, tree bytes.Buffer
		if err := query.EncodeSnapshot(&enc, snap); err != nil {
			return nil, err
		}
		if _, err := snap.Terrain.Tree.WriteTo(&tree); err != nil {
			return nil, err
		}
		r.storeC.Add(k, snap)
		snap.Release()
		r.cold = append(r.cold, coldInput{
			key: k, enc: enc.Bytes(), tree: tree.Bytes(),
			path:  filepath.Join(coldDir, query.SnapshotFileName(k)),
			check: coldPool[i*coldVariants],
		})
	}

	r.engI = engine()
	if r.poolI, err = buildPool(r.engI, workloadRNG(seed, "interactive"), interactiveKeys, interactiveVariants, vertexPartners); err != nil {
		return nil, err
	}
	r.snapsI = map[query.Key]*query.Snapshot{}
	r.fields = map[query.Key][]float64{}
	for _, k := range interactiveKeys {
		if r.snapsI[k], err = r.engI.Snapshot(k); err != nil {
			return nil, err
		}
		fk := query.Key{Dataset: k.Dataset, Measure: k.Measure}
		if r.fields[fk], _, err = scalarfield.MeasureValues(r.graphs[k.Dataset], k.Measure, true); err != nil {
			return nil, err
		}
	}
	// The forwarding handler routes every key to a second handler
	// behind a loopback listener, as node a forwards to node b.
	r.hit = &query.Handler{Engine: r.engI}
	srv := httptest.NewServer(r.hit)
	r.fwd = &query.Handler{
		Engine: r.engI,
		Route:  func(query.Key) (string, bool) { return srv.URL, true },
		Client: srv.Client(),
	}
	return srv, nil
}

// expect counts one correctness check of the traced pass.
func (r *tracedRun) expect(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// resolves checks that snap answers b's operations as expected.
func (r *tracedRun) resolves(snap *query.Snapshot, b *batch) error {
	got, err := json.Marshal(r.engC.Resolve(snap, b.ops))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, b.want) {
		return fmt.Errorf("%v: decoded snapshot answers differ", b.key)
	}
	return nil
}

// generate times dataset generation, which every refresh cycle and
// every server start pays.
func (r *tracedRun) generate(root int) error {
	ph := r.tr.begin("phase.generate", "", root)
	defer r.tr.end(ph)
	for _, ds := range []string{"GrQc", "PPI"} {
		var err error
		r.tr.do("datasets.generate", ds, ph, func() { _, err = datasets.Generate(ds, scale, r.cfg.seed) })
		if err != nil {
			return err
		}
	}
	return nil
}

// refresh replays the refresh writer refreshReps times: invalidate
// each dataset, miss every key through the engine, replay the same
// analysis stage by stage, and encode and store the fresh snapshot.
// Repetitions alternate whether the miss or the replay runs first, so
// neither always finds the caches the other warmed.
func (r *tracedRun) refresh(root int) error {
	ph := r.tr.begin("phase.refresh", "", root)
	defer r.tr.end(ph)
	for rep := 0; rep < refreshReps; rep++ {
		for _, ds := range []string{"GrQc", "PPI"} {
			if err := r.refreshDataset(ph, ds, rep%2 == 1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *tracedRun) refreshDataset(ph int, ds string, replayFirst bool) error {
	r.engR.Invalidate(ds)
	for _, k := range refreshKeys {
		if k.Dataset != ds {
			continue
		}
		label := keyLabel(k)
		if replayFirst {
			if err := r.replayAnalysis(ph, k); err != nil {
				return err
			}
		}
		before := r.engR.AnalysisCount()
		var snap *query.Snapshot
		var err error
		r.tr.do("query.snapshot_miss", label, ph, func() { snap, err = r.engR.Snapshot(k) })
		if err != nil {
			return err
		}
		r.tr.count("query.analyses_per_fresh", float64(r.engR.AnalysisCount()-before))
		if !replayFirst {
			if err := r.replayAnalysis(ph, k); err != nil {
				return err
			}
		}
		var buf bytes.Buffer
		r.tr.do("query.encode", label, ph, func() { err = query.EncodeSnapshot(&buf, snap) })
		if err != nil {
			return err
		}
		r.tr.do("query.store_add", label, ph, func() { r.storeR.Add(k, snap) })
		snap.Release()
	}
	return nil
}

// replayAnalysis runs the stages of one analysis as the engine runs
// them (measure, field, sweep + tree, Algorithm 2, layout, spectrum),
// each in its own span.
func (r *tracedRun) replayAnalysis(parent int, k query.Key) error {
	label, g := keyLabel(k), r.graphs[k.Dataset]
	rp := r.tr.begin("replay.analysis", label, parent)
	defer r.tr.end(rp)
	var (
		values []float64
		edge   bool
		vf     *core.VertexField
		ef     *core.EdgeField
		raw    *core.Tree
		st     *core.SuperTree
		err    error
	)
	r.tr.do("measures."+k.Measure, label, rp, func() { values, edge, err = scalarfield.MeasureValues(g, k.Measure, true) })
	if err != nil {
		return err
	}
	r.tr.do("core.field", label, rp, func() {
		if edge {
			ef, err = core.NewEdgeField(g, values)
		} else {
			vf, err = core.NewVertexField(g, values)
		}
	})
	if err != nil {
		return err
	}
	r.tr.do("core.sweep_tree", label, rp, func() {
		if edge {
			raw = r.tb.BuildEdgeTree(ef)
		} else {
			raw = r.tb.BuildVertexTree(vf)
		}
	})
	r.tr.do("core.algorithm2", label, rp, func() { st = core.Postprocess(raw) })
	// Postprocess leaves its input untouched, so an untimed second call
	// counts its allocations.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	core.Postprocess(raw)
	runtime.ReadMemStats(&after)
	r.tr.count("core.algorithm2_allocs", float64(after.Mallocs-before.Mallocs))
	r.tr.do("terrain.layout", label, rp, func() { terrain.NewLayout(st, terrain.LayoutOptions{}) })
	r.tr.do("contour.spectrum", label, rp, func() { contour.NewSpectrum(st) })
	return nil
}

// coldScan replays the cold-scan read path per key: the tree section
// alone (read + Validate), the copy decode, the mapped decode, and a
// cold Get from the mmap store.
func (r *tracedRun) coldScan(root int) error {
	ph := r.tr.begin("phase.cold", "", root)
	defer r.tr.end(ph)
	for _, c := range r.cold {
		label := keyLabel(c.key)
		var (
			st   *core.SuperTree
			snap *query.Snapshot
			ok   bool
			err  error
		)
		r.tr.do("core.read_tree", label, ph, func() { st, err = core.ReadSuperTree(bytes.NewReader(c.tree)) })
		if err != nil {
			return err
		}
		r.tr.do("core.validate", label, ph, func() { err = st.Validate() })
		r.expect(err)
		r.tr.do("query.decode", label, ph, func() { snap, err = query.DecodeSnapshot(bytes.NewReader(c.enc)) })
		if err != nil {
			return err
		}
		r.expect(r.resolves(snap, c.check))
		snap.Release()
		r.tr.do("query.decode_mapped", label, ph, func() { snap, err = query.DecodeSnapshotFileMapped(c.path) })
		if err != nil {
			return err
		}
		snap.Release()
		r.storeC.DropOpen()
		r.tr.do("query.store_cold_get", label, ph, func() { snap, ok = r.storeC.Get(c.key) })
		if !ok {
			return fmt.Errorf("cold get of %v missed the store", c.key)
		}
		r.expect(r.resolves(snap, c.check))
		snap.Release()
		r.tr.count("query.snapshot_bytes", float64(len(c.enc)))
	}
	return nil
}

// interactive replays the interactive batches: each op through
// Engine.Resolve and through the layer call behind it, then the whole
// batch through the query handler directly and through a forward hop.
func (r *tracedRun) interactive(root int) error {
	ph := r.tr.begin("phase.interactive", "", root)
	defer r.tr.end(ph)
	for i, b := range r.poolI {
		if i%tracedBatchStride != 0 {
			continue
		}
		snap, label := r.snapsI[b.key], keyLabel(b.key)
		tree := snap.Terrain.Tree
		for _, op := range b.ops {
			r.tr.do("query.resolve."+op.Op, label, ph, func() { r.engI.Resolve(snap, []query.Op{op}) })
			switch op.Op {
			case query.OpAlphaCut:
				r.tr.do("core.components_at", label, ph, func() { tree.ComponentsAt(op.Alpha) })
			case query.OpPeaks:
				r.tr.do("terrain.peaks", label, ph, func() { snap.Terrain.Layout.PeaksAt(op.Alpha) })
			case query.OpComponentOf:
				if node := componentRoot(tree, op.Item, op.Alpha); node >= 0 {
					r.tr.do("core.subtree_items", label, ph, func() { tree.SubtreeItems(node) })
				}
			case query.OpGCI, query.OpLCI:
				vj := r.fields[query.Key{Dataset: b.key.Dataset, Measure: op.MeasureJ}]
				var err error
				r.tr.do("correlation.lci", label, ph, func() {
					_, err = correlation.ParallelLCI(snap.Graph, snap.Values, vj, correlation.Options{})
				})
				if err != nil {
					return err
				}
			}
		}
		r.serve("query.handler_hit", ph, r.hit, b)
		r.serve("query.forward_hop", ph, r.fwd, b)
	}
	return nil
}

// serve times one batch through handler h and checks the answer.
func (r *tracedRun) serve(name string, parent int, h http.Handler, b *batch) {
	req := httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(b.body))
	rec := httptest.NewRecorder()
	r.tr.do(name, keyLabel(b.key), parent, func() { h.ServeHTTP(rec, req) })
	r.expect(checkQuery(b, rec.Code, rec.Body.Bytes()))
}

// componentRoot is the super node rooting item's maximal α-component,
// or -1 when the item lies below α (as the component_of op climbs).
func componentRoot(tree *core.SuperTree, item int32, alpha float64) int32 {
	node := tree.NodeOf[item]
	if tree.Scalar[node] < alpha {
		return -1
	}
	for p := tree.Parent[node]; p >= 0 && tree.Scalar[p] >= alpha; p = tree.Parent[node] {
		node = p
	}
	return node
}

// render replays /terrain.png?w=320&h=240 on node a's startup key:
// rasterize the layout, draw the terrain, encode the PNG.
func (r *tracedRun) render(root int) error {
	ph := r.tr.begin("phase.render", "", root)
	defer r.tr.end(ph)
	k := query.Key{Dataset: "GrQc", Measure: "kcore"}
	t := r.snapsI[k].Terrain
	intensity := terrain.Normalize(t.Tree.Scalar)
	colors := make([]color.RGBA, len(intensity))
	for s, v := range intensity {
		colors[s] = terrain.Colormap(v)
	}
	opts := render.Options{Angle: 0.6, Zoom: 1, Width: renderW, Height: renderH}
	for i := 0; i < renderReps; i++ {
		var (
			hm  *terrain.Heightmap
			img *image.RGBA
			buf bytes.Buffer
			err error
		)
		r.tr.do("terrain.rasterize", keyLabel(k), ph, func() { hm = t.Layout.Rasterize(renderW, renderH) })
		r.tr.do("render.terrain_png", keyLabel(k), ph, func() { img = render.TerrainPNG(hm, colors, opts) })
		r.tr.do("render.encode_png", keyLabel(k), ph, func() { err = render.EncodePNG(&buf, img) })
		if err == nil {
			var cfg image.Config
			if cfg, err = png.DecodeConfig(&buf); err == nil && (cfg.Width != renderW || cfg.Height != renderH) {
				err = fmt.Errorf("terrain png is %dx%d", cfg.Width, cfg.Height)
			}
		}
		r.expect(err)
	}
	return nil
}

// result turns the spans into the per-layer metrics and runs the
// stage-sum check.
func (r *tracedRun) result() *result {
	tr := r.tr
	dump := tr.dump()
	var ms []metric
	complete := true
	add := func(name string, v float64, unit string) {
		if math.IsNaN(v) {
			r.problems = append(r.problems, "no samples for "+name)
			complete, v = false, 0
		}
		ms = append(ms, metric{Name: name, Value: v, Unit: unit, N: tr.pass + 1, Beyond: -1})
	}
	milli := func(span string) float64 { return tr.medianMS(span, "") }
	micro := func(span string) float64 { return 1000 * tr.medianMS(span, "") }

	add("datasets.generate_ms", milli("datasets.generate"), "ms")
	for _, m := range append(slices.Clone(structural), centrality...) {
		add("measures."+m+"_ms", milli("measures."+m), "ms")
	}
	for _, s := range []string{"core.field", "core.sweep_tree", "core.algorithm2"} {
		add(s+"_ms", milli(s), "ms")
	}
	add("core.algorithm2_allocs", tr.medianCount("core.algorithm2_allocs"), "count")
	for _, s := range []string{"terrain.layout", "contour.spectrum", "query.encode", "query.store_add",
		"core.read_tree", "core.validate", "query.decode", "query.decode_mapped", "query.store_cold_get"} {
		add(s+"_ms", milli(s), "ms")
	}
	add("query.snapshot_bytes", tr.medianCount("query.snapshot_bytes"), "B")
	for _, op := range []string{query.OpAlphaCut, query.OpPeaks, query.OpMCC, query.OpComponentOf,
		query.OpSpectrum, query.OpLCI, query.OpGCI} {
		add("query.resolve."+op+"_us", micro("query.resolve."+op), "us")
	}
	add("core.components_at_us", micro("core.components_at"), "us")
	add("core.subtree_items_us", micro("core.subtree_items"), "us")
	add("terrain.peaks_us", micro("terrain.peaks"), "us")
	add("correlation.lci_ms", milli("correlation.lci"), "ms")
	add("query.handler_hit_us", micro("query.handler_hit"), "us")
	add("query.forward_hop_us", micro("query.forward_hop"), "us")
	for _, s := range []string{"terrain.rasterize", "render.terrain_png", "render.encode_png"} {
		add(s+"_ms", milli(s), "ms")
	}
	miss := milli("query.snapshot_miss")
	add("query.snapshot_miss_ms", miss, "ms")
	add("query.analyses_per_fresh", tr.medianCount("query.analyses_per_fresh"), "ratio")

	ratio := tr.stageSumRatio()
	stageOK := math.Abs(ratio-1) <= stageSumTolerance
	if !stageOK {
		r.problems = append(r.problems, fmt.Sprintf(
			"analysis stages sum to %.1f%% of the snapshot miss (tolerance %.0f%%)",
			100*ratio, 100*stageSumTolerance))
	}
	for _, c := range r.cold {
		add("core.validate_ms."+keyLabel(c.key), tr.medianMS("core.validate", keyLabel(c.key)), "ms")
	}
	for _, c := range r.cold {
		add("query.decode_ms."+keyLabel(c.key), tr.medianMS("query.decode", keyLabel(c.key)), "ms")
	}
	// The stage-sum check is two-sided around 1, so it is reported and
	// enforced through Correct but is no per-layer metric.
	check := metric{Name: "check.stage_sum_ratio", Value: ratio, Unit: "ratio", N: tr.pass + 1, Beyond: -1}
	return &result{
		Workload:  r.cfg.workload,
		Report:    append(slices.Clone(ms), check),
		Line:      ms,
		Attempted: r.attempted,
		Failed:    r.failed,
		Correct:   r.failed == 0 && stageOK && complete && r.attempted > 0,
		Problems:  r.problems,
		Trace:     dump,
	}
}
