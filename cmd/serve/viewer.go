package main

import (
	"html/template"
	"image/color"
	"log"
	"net/http"
	"strconv"

	scalarfield "repro"
	"repro/internal/baselines"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/terrain"
)

// Render-parameter bounds. Rendering cost grows with the image area
// and, for the terrain, with zoom, so every value a URL can set is
// clamped before it reaches the renderer.
const (
	maxImageSide       = 2048 // /terrain.png w and h
	minZoom, maxZoom   = 0.5, 6.0
	minPanel, maxPanel = 64, 1024 // /treemap.png and /linked.png size
)

// viewerKey is the snapshot key a viewer request names: its dataset,
// measure, color and bins URL parameters merged over the startup key
// by the same rule the batch API applies to its request body.
func (s *server) viewerKey(r *http.Request) (query.Key, error) {
	q := r.URL.Query()
	req := query.Request{Dataset: q.Get("dataset"), Measure: q.Get("measure")}
	if q.Has("color") {
		c := q.Get("color")
		req.Color = &c
	}
	if q.Has("bins") {
		b, err := strconv.Atoi(q.Get("bins"))
		if err != nil {
			return query.Key{}, &query.ClientError{Err: err}
		}
		req.Bins = &b
	}
	return req.ResolveKey(s.api.Defaults), nil
}

// viewerSnapshot resolves the request's own key to its snapshot, or
// answers the failure with the batch API's status mapping (400 for a
// bad key, 503 with Retry-After for a shed analysis). Handlers hold the
// snapshot for their whole response, so everything they read is from
// one analysis. The viewer always serves locally, even in a fleet.
func (s *server) viewerSnapshot(w http.ResponseWriter, r *http.Request) (*query.Snapshot, bool) {
	key, err := s.viewerKey(r)
	var snap *query.Snapshot
	if err == nil {
		snap, err = s.engine.SnapshotCtx(r.Context(), key)
	}
	if err != nil {
		s.api.WriteSnapshotError(w, err)
		return nil, false
	}
	return snap, true
}

func (s *server) handleTerrain(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.viewerSnapshot(w, r)
	if !ok {
		return
	}
	defer snap.Release()
	opts := render.Options{
		Angle:  floatParam(r, "angle", 0.6),
		Zoom:   clamp(floatParam(r, "zoom", 1), minZoom, maxZoom),
		Width:  min(intParam(r, "w", 960), maxImageSide),
		Height: min(intParam(r, "h", 720), maxImageSide),
	}
	img := snap.Terrain.Render(opts)
	w.Header().Set("Content-Type", "image/png")
	if err := render.EncodePNG(w, img); err != nil {
		log.Printf("terrain.png: %v", err)
	}
}

func (s *server) handleTreemap(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.viewerSnapshot(w, r)
	if !ok {
		return
	}
	defer snap.Release()
	img := snap.Terrain.RenderTreemap(clamp(intParam(r, "size", 480), minPanel, maxPanel))
	w.Header().Set("Content-Type", "image/png")
	if err := render.EncodePNG(w, img); err != nil {
		log.Printf("treemap.png: %v", err)
	}
}

// handleLinked renders the paper's linked 2D display: a spring layout
// of the component selected by a click at layout coordinates (x,y).
func (s *server) handleLinked(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.viewerSnapshot(w, r)
	if !ok {
		return
	}
	defer snap.Release()
	t := snap.Terrain
	node, found := nodeAt(t, r)
	if !found {
		http.Error(w, "no node at the given point", http.StatusNotFound)
		return
	}
	items := t.Tree.SubtreeItems(node)
	vertices := itemVertices(snap, items)
	if len(vertices) > 3000 {
		vertices = vertices[:3000] // keep the interactive path responsive
	}
	sub, origIDs := graph.InducedSubgraph(snap.Graph, vertices)
	pos := baselines.SpringLayout(sub, baselines.SpringOptions{Seed: 7, Iterations: 150})
	colors := make([]color.RGBA, sub.NumVertices())
	scalars := t.Tree.Scalar
	lo, hi := scalars[0], scalars[0]
	for _, v := range scalars {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for v := range colors {
		c := 0.5
		if hi > lo {
			c = (itemScalar(snap, origIDs[v]) - lo) / (hi - lo)
		}
		colors[v] = terrain.Colormap(c)
	}
	img := baselines.DrawNodeLink(sub, pos, colors, baselines.DrawOptions{
		Size: clamp(intParam(r, "size", 480), minPanel, maxPanel),
	})
	w.Header().Set("Content-Type", "image/png")
	if err := render.EncodePNG(w, img); err != nil {
		log.Printf("linked.png: %v", err)
	}
}

// itemVertices converts item IDs to vertex IDs: identity for vertex
// fields, edge endpoints for edge fields.
func itemVertices(snap *query.Snapshot, items []int32) []int32 {
	if !snap.Edge {
		return items
	}
	seen := map[int32]bool{}
	var verts []int32
	for _, e := range items {
		ed := snap.Graph.Edge(e)
		for _, v := range []int32{ed.U, ed.V} {
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
	}
	return verts
}

// itemScalar returns the scalar of the super node owning the item; for
// edge-based fields the item is a vertex of the linked view, so the
// vertex inherits the max incident edge scalar.
func itemScalar(snap *query.Snapshot, item int32) float64 {
	tree := snap.Terrain.Tree
	if !snap.Edge {
		return tree.Scalar[tree.NodeOf[item]]
	}
	best := 0.0
	for _, e := range snap.Graph.IncidentEdges(item) {
		if v := tree.Scalar[tree.NodeOf[e]]; v > best {
			best = v
		}
	}
	return best
}

func nodeAt(t *scalarfield.Terrain, r *http.Request) (int32, bool) {
	x := floatParam(r, "x", -1)
	y := floatParam(r, "y", -1)
	if x < 0 || x > 1 || y < 0 || y > 1 {
		return 0, false
	}
	node := t.Layout.NodeAtPoint(x, y)
	return node, node >= 0
}

// handleSelect hit-tests the treemap click and answers the clicked
// super node's maximal component as a component_of op at the node's
// own scalar. Super-tree scalars strictly decrease toward the root, so
// that component is exactly the node's subtree.
func (s *server) handleSelect(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.viewerSnapshot(w, r)
	if !ok {
		return
	}
	defer snap.Release()
	node, found := nodeAt(snap.Terrain, r)
	if !found {
		http.Error(w, "no node at the given point", http.StatusNotFound)
		return
	}
	tree := snap.Terrain.Tree
	op := query.Op{Op: query.OpComponentOf, Item: tree.Members(node)[0], Alpha: tree.Scalar[node]}
	writeJSON(w, struct {
		Node   int32   `json:"node"`
		Scalar float64 `json:"scalar"`
		query.OpResult
	}{node, tree.Scalar[node], s.engine.Resolve(snap, []query.Op{op})[0]})
}

// indexTmpl is the viewer page. Its key lives in its own URL: every
// image and query it issues carries the page's dataset/measure/color/
// bins parameters, so one viewer's choices never reach another's.
var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<title>scalarfield terrain — {{.Name}}</title>
<style>
body { font-family: sans-serif; margin: 1em; }
.row { display: flex; gap: 1em; align-items: flex-start; }
img { border: 1px solid #ccc; }
#info { max-width: 28em; font-size: 0.9em; white-space: pre-wrap; }
</style>
<h1>{{.Name}} — {{.Nodes}} vertices, {{.Edges}} edges, <span id="super">{{.Super}}</span> super nodes</h1>
<p>
measure <select id="measure">{{$cur := .Measure}}{{range .Measures}}<option{{if eq . $cur}} selected{{end}}>{{.}}</option>{{end}}</select>
angle <input id="angle" type="range" min="0" max="6.28" step="0.05" value="0.6">
zoom <input id="zoom" type="range" min="0.5" max="6" step="0.1" value="1">
α <input id="alpha" type="number" step="any" value="0" style="width:6em">
<button onclick="loadPeaks()">peaks</button>
<button onclick="loadSpectrum()">spectrum</button>
</p>
<div class="row">
  <img id="terrain" width="640" height="480">
  <img id="treemap" width="360" height="360"
       title="click to select a peak (linked 2D display)">
  <img id="linked" width="360" height="360" alt="linked view">
</div>
<div id="info">click the treemap to inspect a component</div>
<script>
const $ = id => document.getElementById(id);
let params = new URLSearchParams(location.search);
function url(path, p, extra) {
  const q = new URLSearchParams(p);
  for (const k in extra) q.set(k, extra[k]);
  return path + '?' + q;
}
const terrainURL = p => url('/terrain.png', p, {angle: $('angle').value, zoom: $('zoom').value});
const treemapURL = p => url('/treemap.png', p, {size: 360});
function refresh() { $('terrain').src = terrainURL(params); }
$('angle').oninput = refresh; $('zoom').oninput = refresh;
refresh();
$('treemap').src = treemapURL(params);

// A measure switch preloads the new key's images and keeps the old
// ones on screen until both have loaded; a switch superseded by a
// newer one is dropped when its images arrive.
let seq = 0;
$('measure').onchange = ev => {
  const next = new URLSearchParams(params);
  next.set('measure', ev.target.value);
  const mine = ++seq, imgs = [new Image(), new Image()];
  let left = imgs.length;
  $('info').textContent = 'analyzing ' + ev.target.value + '…';
  const settle = ok => {
    if (mine !== seq) return;
    if (!ok) {
      seq++;
      $('measure').value = params.get('measure') || '{{.Measure}}';
      $('info').textContent = 'could not load ' + next.get('measure') + '; still showing the previous measure';
      return;
    }
    if (--left > 0) return;
    params = next;
    $('terrain').src = imgs[0].src;
    $('treemap').src = imgs[1].src;
    $('linked').removeAttribute('src');
    history.replaceState(null, '', '?' + params);
    loadPeaks();
  };
  for (const img of imgs) { img.onload = () => settle(true); img.onerror = () => settle(false); }
  imgs[0].src = terrainURL(next);
  imgs[1].src = treemapURL(next);
};
$('treemap').onclick = async ev => {
  const r = ev.target.getBoundingClientRect();
  const at = {x: (ev.clientX - r.left) / r.width, y: (ev.clientY - r.top) / r.height};
  const resp = await fetch(url('/select', params, at));
  $('info').textContent = await resp.text();
  $('linked').src = url('/linked.png', params, at);
};
// Peaks and the spectrum are batch-API ops on the page's key; unset
// key fields default exactly as they do for the images.
async function query(ops) {
  const body = {ops};
  for (const f of ['dataset', 'measure', 'color']) if (params.has(f)) body[f] = params.get(f);
  if (params.has('bins')) body.bins = Number(params.get('bins'));
  const resp = await fetch('/api/v1/query', {method: 'POST', body: JSON.stringify(body)});
  const text = await resp.text();
  $('info').textContent = text;
  if (resp.ok) $('super').textContent = JSON.parse(text).snapshot.superNodes;
}
const loadPeaks = () => query([{op: 'peaks', alpha: Number($('alpha').value)}]);
const loadSpectrum = () => query([{op: 'spectrum'}]);
</script>
`))

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap, ok := s.viewerSnapshot(w, r)
	if !ok {
		return
	}
	defer snap.Release()
	data := struct {
		Name         string
		Nodes, Edges int
		Super        int
		Measure      string
		Measures     []string
	}{snap.Key.Dataset, snap.Graph.NumVertices(), snap.Graph.NumEdges(),
		snap.Terrain.Tree.Len(), snap.Key.Measure, scalarfield.Measures()}
	if err := indexTmpl.Execute(w, data); err != nil {
		log.Printf("index: %v", err)
	}
}

func floatParam(r *http.Request, name string, def float64) float64 {
	if s := r.URL.Query().Get(name); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return def
}

func intParam(r *http.Request, name string, def int) int {
	if s := r.URL.Query().Get(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// clamp bounds v to [lo, hi]; NaN maps to lo.
func clamp[T int | float64](v, lo, hi T) T {
	if !(v >= lo) {
		return lo
	}
	return min(v, hi)
}
