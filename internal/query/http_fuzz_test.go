package query

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
