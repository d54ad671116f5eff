package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
)

func testServer(t *testing.T, measure, colorBy string) *httptest.Server {
	t.Helper()
	srv, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: measure, colorBy: colorBy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestIndexServesHTML(t *testing.T) {
	ts := testServer(t, "kcore", "degree")
	resp := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("index content type %q", ct)
	}
}

func TestIndexUnknownPath404(t *testing.T) {
	ts := testServer(t, "kcore", "")
	if resp := get(t, ts.URL+"/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
	}
}

func TestTerrainAndTreemapArePNG(t *testing.T) {
	ts := testServer(t, "kcore", "")
	for _, path := range []string{
		"/terrain.png?angle=1.1&zoom=2&w=320&h=240",
		"/treemap.png?size=200",
	} {
		resp := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if _, err := png.Decode(resp.Body); err != nil {
			t.Fatalf("%s is not a decodable PNG: %v", path, err)
		}
	}
}

// TestPeaksJSON covers the page's peaks button: a batch-API peaks op
// posted with the page's key.
func TestPeaksJSON(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp, data := postQuery(t, ts.URL, `{"dataset": "GrQc", "measure": "kcore", "ops": [{"op": "peaks", "alpha": 2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peaks status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Results []struct {
			Peaks []struct {
				Node   int32   `json:"node"`
				Height float64 `json:"height"`
				Items  int     `json:"items"`
			} `json:"peaks"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	peaks := out.Results[0].Peaks
	if len(peaks) == 0 {
		t.Fatal("no peaks at α=2 on a GrQc-style graph")
	}
	for _, p := range peaks {
		if p.Height < 2 || p.Items < 1 {
			t.Fatalf("implausible peak %+v", p)
		}
	}
}

func TestSelectAndLinkedView(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp := get(t, ts.URL+"/select?x=0.5&y=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d", resp.StatusCode)
	}
	var sel struct {
		Node      int32   `json:"node"`
		Scalar    float64 `json:"scalar"`
		ItemCount int     `json:"itemCount"`
		Items     []int32 `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sel); err != nil {
		t.Fatal(err)
	}
	if sel.ItemCount < 1 || len(sel.Items) < 1 {
		t.Fatalf("empty selection %+v", sel)
	}

	img := get(t, ts.URL+"/linked.png?x=0.5&y=0.5")
	if img.StatusCode != http.StatusOK {
		t.Fatalf("linked status %d", img.StatusCode)
	}
	if _, err := png.Decode(img.Body); err != nil {
		t.Fatalf("linked view not a PNG: %v", err)
	}
}

// TestSelectIsTheClickedSubtree: /select answers a component_of op at
// the clicked super node's own scalar, which by the super tree's
// strictly decreasing scalars toward the root is exactly the node's
// subtree (truncated to the op's default 200 items).
func TestSelectIsTheClickedSubtree(t *testing.T) {
	srv, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	hits := 0
	for _, measure := range []string{"kcore", "ktruss"} {
		snap, err := srv.engine.Snapshot(query.Key{Dataset: "GrQc", Measure: measure})
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()
		for _, at := range []string{"x=0.5&y=0.5", "x=0.1&y=0.9", "x=0.33&y=0.2", "x=0.8&y=0.6"} {
			status, body := fetch(t, ts.URL+"/select?measure="+measure+"&"+at)
			if status == http.StatusNotFound {
				continue // no node under this point
			}
			var sel struct {
				Node      int32   `json:"node"`
				ItemCount int     `json:"itemCount"`
				Items     []int32 `json:"items"`
			}
			if err := json.Unmarshal(body, &sel); err != nil {
				t.Fatalf("%s %s: status %d: %v", measure, at, status, err)
			}
			want := snap.Terrain.Tree.SubtreeItems(sel.Node)
			if sel.ItemCount != len(want) || !slices.Equal(sel.Items, want[:min(len(want), 200)]) {
				t.Fatalf("%s %s: selected %d items %v, want the subtree of node %d (%d items)",
					measure, at, sel.ItemCount, sel.Items, sel.Node, len(want))
			}
			hits++
		}
	}
	if hits < 4 {
		t.Fatalf("only %d of the test points hit a node", hits)
	}
}

func TestSelectOutOfRange404(t *testing.T) {
	ts := testServer(t, "kcore", "")
	for _, q := range []string{"?x=2&y=0.5", "?x=0.5&y=-1", ""} {
		if resp := get(t, ts.URL+"/select"+q); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("select%s status %d, want 404", q, resp.StatusCode)
		}
	}
}

// TestSpectrumJSON covers the page's spectrum button: a batch-API
// spectrum op posted with the page's key.
func TestSpectrumJSON(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp, data := postQuery(t, ts.URL, `{"dataset": "GrQc", "measure": "kcore", "ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spectrum status %d: %s", resp.StatusCode, data)
	}
	var out batchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	sp := out.Results[0].Spectrum
	if sp == nil || len(sp.Levels) == 0 || len(sp.Levels) != len(sp.Components) || len(sp.Levels) != len(sp.Items) {
		t.Fatalf("inconsistent spectrum: %+v", sp)
	}
}

func TestEdgeMeasureServer(t *testing.T) {
	ts := testServer(t, "ktruss", "")
	resp := get(t, ts.URL+"/linked.png?x=0.5&y=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge-field linked view status %d", resp.StatusCode)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatalf("edge-field linked view not a PNG: %v", err)
	}
}

// fetch GETs url and returns its status and body; fetchErr is the
// variant for goroutines other than the test's own.
func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	status, body, err := fetchErr(url)
	if err != nil {
		t.Fatal(err)
	}
	return status, body
}

func fetchErr(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// TestMeasureSwitchEndpoint switches measures through the viewer's
// URLs: a measure parameter selects that measure's snapshot for the
// one request, and requests without it keep the startup measure.
func TestMeasureSwitchEndpoint(t *testing.T) {
	ts := testServer(t, "kcore", "")

	_, page := fetch(t, ts.URL+"/?measure=ktruss")
	if !strings.Contains(string(page), "<option selected>ktruss</option>") {
		t.Fatal("/?measure=ktruss does not show ktruss as the selected measure")
	}
	_, kcore := fetch(t, ts.URL+"/treemap.png?size=128")
	status, ktruss := fetch(t, ts.URL+"/treemap.png?size=128&measure=ktruss")
	if status != http.StatusOK {
		t.Fatalf("treemap for ktruss: status %d", status)
	}
	if bytes.Equal(kcore, ktruss) {
		t.Fatal("the ktruss treemap is the startup kcore one")
	}

	// Unknown names are rejected, and the startup page is untouched.
	if status, _ := fetch(t, ts.URL+"/terrain.png?measure=nonsense"); status != http.StatusBadRequest {
		t.Fatalf("unknown measure status %d, want 400", status)
	}
	if _, page := fetch(t, ts.URL+"/"); !strings.Contains(string(page), "<option selected>kcore</option>") {
		t.Fatal("the startup page no longer shows kcore")
	}
}

// TestMeasureSwitchCarriesColorAcrossBases: started with -color degree
// (vertex). A URL naming an edge measure drops the vertex coloring for
// that request instead of failing, and a URL naming another vertex
// measure keeps it, for the viewer and the batch API alike. An
// explicit cross-basis color is still the client's error, and an
// explicit empty color clears the coloring.
func TestMeasureSwitchCarriesColorAcrossBases(t *testing.T) {
	ts := testServer(t, "kcore", "degree")
	if status, _ := fetch(t, ts.URL+"/terrain.png?w=64&h=48&measure=ktruss"); status != http.StatusOK {
		t.Fatalf("edge measure under a vertex startup color: status %d", status)
	}
	_, carried := fetch(t, ts.URL+"/terrain.png?w=64&h=48&measure=onion")
	_, explicit := fetch(t, ts.URL+"/terrain.png?w=64&h=48&measure=onion&color=degree")
	_, cleared := fetch(t, ts.URL+"/terrain.png?w=64&h=48&measure=onion&color=")
	if !bytes.Equal(carried, explicit) || bytes.Equal(carried, cleared) {
		t.Fatal("the startup degree coloring did not carry over to onion")
	}
	for measure, wantColor := range map[string]string{"ktruss": "", "onion": "degree"} {
		resp, data := postQuery(t, ts.URL, `{"measure": "`+measure+`", "ops": [{"op": "spectrum"}]}`)
		var out struct {
			Snapshot struct {
				Color string `json:"color"`
			} `json:"snapshot"`
		}
		if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch for %s: status %d, %v", measure, resp.StatusCode, err)
		}
		if out.Snapshot.Color != wantColor {
			t.Fatalf("batch for %s colored by %q, want %q", measure, out.Snapshot.Color, wantColor)
		}
	}
	if status, _ := fetch(t, ts.URL+"/terrain.png?measure=onion&color=ktruss"); status != http.StatusBadRequest {
		t.Fatalf("cross-basis explicit color status %d, want 400", status)
	}
	if status, _ := fetch(t, ts.URL+"/terrain.png?w=64&h=48&measure=kcore&color="); status != http.StatusOK {
		t.Fatalf("clearing color status %d", status)
	}
}

// TestConcurrentKeyedMissesCoalesce: concurrent viewer requests for one
// uncached key run exactly one analysis, through the engine's
// singleflight.
func TestConcurrentKeyedMissesCoalesce(t *testing.T) {
	srv, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	startup := srv.engine.AnalysisCount()

	var wg sync.WaitGroup
	statuses := make([]int, 8)
	errs := make([]error, 8)
	for i := range statuses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], _, errs[i] = fetchErr(ts.URL + "/treemap.png?size=64&measure=harmonic")
		}()
	}
	wg.Wait()
	for i := range statuses {
		if errs[i] != nil || statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, statuses[i], errs[i])
		}
	}
	if ran := srv.engine.AnalysisCount() - startup; ran != 1 {
		t.Fatalf("%d analyses for 8 concurrent requests, want 1", ran)
	}
}

// TestViewerBadKeysAre400: a viewer URL naming an unknown measure, an
// unknown dataset, a color on the other basis or unparsable bins is
// the client's error on every viewer endpoint.
func TestViewerBadKeysAre400(t *testing.T) {
	ts := testServer(t, "kcore", "")
	for _, path := range []string{"/?", "/terrain.png?", "/treemap.png?", "/linked.png?x=0.5&y=0.5&", "/select?x=0.5&y=0.5&"} {
		for _, key := range []string{"measure=nonsense", "dataset=NotATable1Name", "color=ktruss", "bins=many"} {
			if status, body := fetch(t, ts.URL+path+key); status != http.StatusBadRequest {
				t.Fatalf("%s%s: status %d, want 400: %s", path, key, status, body)
			}
		}
	}
}

// TestViewerRenderParamsAreBounded: zoom is clamped to the page
// slider's range and image sizes are capped, so no URL can make one
// render arbitrarily expensive.
func TestViewerRenderParamsAreBounded(t *testing.T) {
	ts := testServer(t, "kcore", "")
	pngSize := func(path string) (int, int) {
		t.Helper()
		status, body := fetch(t, ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", path, status)
		}
		cfg, err := png.DecodeConfig(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return cfg.Width, cfg.Height
	}
	if w, h := pngSize("/terrain.png?zoom=1e9&w=1000000&h=1000000"); w != maxImageSide || h != maxImageSide {
		t.Fatalf("terrain is %dx%d, want %dx%d", w, h, maxImageSide, maxImageSide)
	}
	for path, want := range map[string]int{
		"/treemap.png?size=1000000":            maxPanel,
		"/treemap.png?size=1":                  minPanel,
		"/linked.png?x=0.5&y=0.5&size=1000000": maxPanel,
	} {
		if w, h := pngSize(path); w != want || h != want {
			t.Fatalf("%s is %dx%d, want %d", path, w, h, want)
		}
	}
	for zoom, clamped := range map[string]string{"1e9": "6", "NaN": "0.5", "-3": "0.5"} {
		_, got := fetch(t, ts.URL+"/terrain.png?w=64&h=48&zoom="+zoom)
		_, want := fetch(t, ts.URL+"/terrain.png?w=64&h=48&zoom="+clamped)
		if !bytes.Equal(got, want) {
			t.Fatalf("zoom=%s did not render as zoom=%s", zoom, clamped)
		}
	}
}

func TestUnknownMeasureRejected(t *testing.T) {
	if _, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "nonsense"}); err == nil {
		t.Fatal("unknown measure must be rejected")
	}
	if _, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore", colorBy: "ktruss"}); err == nil {
		t.Fatal("vertex height + edge color must be rejected")
	}
}

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// batchResponse mirrors the subset of query.Response these tests read.
type batchResponse struct {
	Snapshot struct {
		Dataset string `json:"dataset"`
		Measure string `json:"measure"`
		Edge    bool   `json:"edge"`
		Seq     uint64 `json:"seq"`
		Items   int    `json:"items"`
	} `json:"snapshot"`
	Results []struct {
		Op    string `json:"op"`
		Error string `json:"error"`
		Count int    `json:"count"`
		Peaks []struct {
			Items int `json:"items"`
		} `json:"peaks"`
		Spectrum *struct {
			Levels     []float64 `json:"Levels"`
			Components []int     `json:"Components"`
			Items      []int     `json:"Items"`
		} `json:"spectrum"`
		GCI *float64 `json:"gci"`
	} `json:"results"`
}

// TestBatchQueryEndpoint is the acceptance criterion at the server
// level: one POST /api/v1/query answers a mixed alpha_cut + peaks +
// gci batch from one snapshot, with unset key fields defaulting to the
// viewer's current selection.
func TestBatchQueryEndpoint(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp, data := postQuery(t, ts.URL, `{"ops": [
		{"op": "alpha_cut", "alpha": 2},
		{"op": "peaks", "alpha": 2},
		{"op": "gci", "measure_j": "degree"}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out batchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Snapshot.Measure != "kcore" || out.Snapshot.Dataset != "GrQc" {
		t.Fatalf("defaults not applied: %+v", out.Snapshot)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results for 3 ops", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("op %d errored: %s", i, r.Error)
		}
	}
	if out.Results[0].Count < 1 || len(out.Results[1].Peaks) < 1 || out.Results[2].GCI == nil {
		t.Fatalf("implausible batch results: %+v", out.Results)
	}
}

// TestDatasetSwitchOnDemand: a viewer URL naming another Table I
// dataset loads it through the engine's loader, keeping the startup
// measure, while URLs without a dataset keep serving the startup one.
func TestDatasetSwitchOnDemand(t *testing.T) {
	srv, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	status, page := fetch(t, ts.URL+"/?dataset=PPI")
	if status != http.StatusOK {
		t.Fatalf("dataset switch status %d", status)
	}
	if !strings.Contains(string(page), "<h1>PPI —") || !strings.Contains(string(page), "<option selected>kcore</option>") {
		t.Fatal("/?dataset=PPI does not show PPI under the startup measure")
	}
	// The on-demand-loaded dataset is listed alongside the registered one.
	listed := map[string]bool{}
	for _, d := range srv.engine.Datasets() {
		listed[d] = true
	}
	if !listed["PPI"] || !listed["GrQc"] {
		t.Fatalf("datasets list %v missing PPI or GrQc", srv.engine.Datasets())
	}
	if status, _ := fetch(t, ts.URL+"/treemap.png?size=128&dataset=PPI"); status != http.StatusOK {
		t.Fatalf("treemap of the loaded dataset: %d", status)
	}
	if status, _ := fetch(t, ts.URL+"/?dataset=NotATable1Name"); status != http.StatusBadRequest {
		t.Fatalf("unknown dataset status %d, want 400", status)
	}
	if _, page := fetch(t, ts.URL+"/"); !strings.Contains(string(page), "<h1>GrQc —") {
		t.Fatal("the startup page no longer shows GrQc")
	}
}

// TestBatchQueriesConsistentUnderMeasureSwitches hammers the batch
// endpoint, alternating between the startup measure (kcore, by
// omission) and an explicit edge measure (ktruss), while viewer
// requests switch between the two, and asserts every response is for
// the measure it asked for and internally consistent — all fields from
// one snapshot. The invariant: at a cut
// height below every level, the peak item counts sum to the spectrum's
// total survivor count and the peak count equals B0 at the lowest
// level. kcore (items = vertices) and ktruss (items = edges) disagree
// on both, so a torn response mixing two snapshots fails. Run with
// -race in CI.
func TestBatchQueriesConsistentUnderMeasureSwitches(t *testing.T) {
	ts := testServer(t, "kcore", "")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			name := []string{"ktruss", "kcore"}[i%2]
			fetchErr(ts.URL + "/treemap.png?size=64&measure=" + name)
		}
	}()

	ops := `"ops": [{"op": "spectrum"}, {"op": "peaks", "alpha": -1e18}]}`
	for i := 0; i < 24; i++ {
		body, want := `{`+ops, "kcore"
		if i%2 == 1 {
			body, want = `{"measure": "ktruss", `+ops, "ktruss"
		}
		resp, data := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d status %d: %s", i, resp.StatusCode, data)
		}
		var out batchResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if out.Snapshot.Measure != want || out.Snapshot.Dataset != "GrQc" {
			t.Fatalf("batch %d: answered for (%s, %s), want (GrQc, %s)", i, out.Snapshot.Dataset, out.Snapshot.Measure, want)
		}
		if wantEdge := want == "ktruss"; out.Snapshot.Edge != wantEdge {
			t.Fatalf("batch %d: measure %q but edge=%v", i, out.Snapshot.Measure, out.Snapshot.Edge)
		}
		spec, peaks := out.Results[0], out.Results[1]
		if spec.Error != "" || peaks.Error != "" || spec.Spectrum == nil {
			t.Fatalf("batch %d results: %+v", i, out.Results)
		}
		if len(spec.Spectrum.Items) == 0 {
			t.Fatalf("batch %d: empty spectrum", i)
		}
		survivors := spec.Spectrum.Items[0]
		total := 0
		for _, p := range peaks.Peaks {
			total += p.Items
		}
		if total != survivors || total != out.Snapshot.Items {
			t.Fatalf("batch %d torn: peak items sum %d, spectrum survivors %d, snapshot items %d (measure %s)",
				i, total, survivors, out.Snapshot.Items, out.Snapshot.Measure)
		}
		if len(peaks.Peaks) != spec.Spectrum.Components[0] {
			t.Fatalf("batch %d torn: %d peaks vs B0=%d at the lowest level",
				i, len(peaks.Peaks), spec.Spectrum.Components[0])
		}
	}
	<-done
}

// TestTwoViewersSeeOnlyTheirOwnKeys: two viewers share a server, each
// switching between two keys of its own — A between GrQc kcore and
// ktruss, B between PPI degree and pagerank — with their requests
// interleaved. Every page, /select and PNG answer matches the one for
// the key in the requester's own URL, and batch queries that omit the
// dataset and measure, sent during the churn, are answered for the
// startup key every time. Run with -race in CI.
func TestTwoViewersSeeOnlyTheirOwnKeys(t *testing.T) {
	viewers := [][]string{
		{"dataset=GrQc&measure=kcore", "dataset=GrQc&measure=ktruss"},
		{"dataset=PPI&measure=degree", "dataset=PPI&measure=pagerank"},
	}
	paths := []string{"/?", "/select?x=0.5&y=0.5&", "/terrain.png?w=96&h=72&",
		"/treemap.png?size=96&", "/linked.png?x=0.5&y=0.5&size=96&"}

	// The expected answers come from a second server asked one request
	// at a time; each key's answer must differ from the others' so that
	// an answer for the wrong key cannot pass.
	ref := testServer(t, "kcore", "")
	want := map[string][]byte{}
	for _, p := range paths {
		owner := map[string]string{}
		for _, keys := range viewers {
			for _, k := range keys {
				status, body := fetch(t, ref.URL+p+k)
				if status != http.StatusOK {
					t.Fatalf("%s%s: status %d: %s", p, k, status, body)
				}
				if other, dup := owner[string(body)]; dup {
					t.Fatalf("%s answers the same for %s and %s", p, other, k)
				}
				owner[string(body)] = k
				want[p+k] = body
			}
		}
	}

	ts := testServer(t, "kcore", "")
	errs := make(chan error, 2*4*len(paths))
	var wg sync.WaitGroup
	for _, keys := range viewers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				k := keys[round%2]
				for _, p := range paths {
					status, body, err := fetchErr(ts.URL + p + k)
					switch {
					case err != nil:
						errs <- err
					case status != http.StatusOK:
						errs <- fmt.Errorf("%s%s: status %d", p, k, status)
					case !bytes.Equal(body, want[p+k]):
						errs <- fmt.Errorf("%s%s: answered for another key", p, k)
					}
				}
			}
		}()
	}
	viewersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(viewersDone)
	}()

	for batches := 0; ; batches++ {
		select {
		case <-viewersDone:
			if batches == 0 {
				t.Fatal("no batch query ran during the churn")
			}
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			return
		default:
		}
		resp, data := postQuery(t, ts.URL, `{"ops": [{"op": "peaks", "alpha": 1}]}`)
		var out batchResponse
		if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d, %v", batches, resp.StatusCode, err)
		}
		if out.Snapshot.Dataset != "GrQc" || out.Snapshot.Measure != "kcore" {
			t.Fatalf("batch %d without a key answered for (%s, %s), want the startup (GrQc, kcore)",
				batches, out.Snapshot.Dataset, out.Snapshot.Measure)
		}
	}
}
