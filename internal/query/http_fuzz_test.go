package query

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzBatchQuery posts arbitrary bodies to the batch API over the tiny
// test engine. Whatever the body, the handler must not panic, must
// answer 200, 400 or 503, and a 200 must carry one result per
// requested op. The key fields pass through Request.ResolveKey, the
// merge the viewer in cmd/serve shares.
func FuzzBatchQuery(f *testing.F) {
	e := NewEngine(Options{})
	e.RegisterDataset("tiny", testGraph())
	h := &Handler{Engine: e, Defaults: Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}}

	for _, seed := range []string{
		`{"ops": [{"op": "alpha_cut", "alpha": 1}, {"op": "peaks", "alpha": 1}, {"op": "mcc", "item": 2},
			{"op": "component_of", "item": 1, "alpha": 2}, {"op": "spectrum"},
			{"op": "lci", "measure_j": "degree", "limit": -1}, {"op": "gci", "measure_j": "triangles"}]}`,
		`{"measure": "ktruss", "ops": [{"op": "spectrum"}]}`,
		`{"measure": "ktruss", "color": "degree", "ops": [{"op": "spectrum"}]}`,
		`{"dataset": "nope", "ops": [{"op": "spectrum"}]}`,
		`{"color": "", "bins": 3, "ops": [{"op": "mcc", "item": -1}, {"op": "nope"}]}`,
		`{"ops": []}`,
		`{"ops": [`,
		`null`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		// The handler decodes only the first JSON value; so does this.
		var req Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the handler should not have decoded: %v", err)
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable response: %v", err)
		}
		if len(resp.Results) != len(req.Ops) {
			t.Fatalf("%d results for %d ops", len(resp.Results), len(req.Ops))
		}
	})
}

// FuzzInvalidate sends arbitrary method, dataset and gen values to the
// invalidation endpoint of an engine whose generations persist in a
// GenerationFile, seeded with GrQc at generation 3. The handler must
// answer 200, 400 or 405; after a 200 a reopened file must report the
// engine's generation for the dataset, and whatever the answer, GrQc's
// persisted generation must survive.
func FuzzInvalidate(f *testing.F) {
	for _, seed := range [][3]string{
		{http.MethodPost, "GrQc", ""},
		{http.MethodPost, "GrQc", "7"},
		{http.MethodPost, "GrQc", "1"},
		{http.MethodPost, "PPI", "18446744073709551615"},
		{http.MethodPost, "PPI", "-1"},
		{http.MethodPost, "", ""},
		{http.MethodGet, "GrQc", ""},
		{http.MethodPut, "x\x00y", "2"},
		{http.MethodPost, strings.Repeat("n", maxDatasetNameBytes), "2"},
		{http.MethodPost, strings.Repeat("x", 5<<10), ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}

	f.Fuzz(func(t *testing.T, method, dataset, gen string) {
		path := filepath.Join(t.TempDir(), "generations")
		gf, err := NewGenerationFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gf.Save("GrQc", 3); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Options{Generations: gf})
		target := "/api/v1/invalidate?" + url.Values{"dataset": {dataset}, "gen": {gen}}.Encode()
		req, err := http.NewRequest(method, target, nil)
		if err != nil {
			return // not an HTTP method a client can send
		}
		rec := httptest.NewRecorder()
		(&InvalidationHandler{Engine: e}).ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("status %d for %s dataset=%q gen=%q: %s", rec.Code, method, dataset, gen, rec.Body.Bytes())
		}

		reopened, err := NewGenerationFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gens, _ := reopened.Load()
		if rec.Code == http.StatusOK {
			if got, want := gens[dataset], e.DatasetGeneration(dataset); got != want {
				t.Fatalf("dataset %q: reopened file reports generation %d, engine %d", dataset, got, want)
			}
		}
		if got, want := gens["GrQc"], e.DatasetGeneration("GrQc"); got != want || got < 3 {
			t.Fatalf("GrQc: reopened file reports generation %d, engine %d (seeded 3)", got, want)
		}
	})
}
