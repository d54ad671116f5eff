package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilience"
)

// refuseDial fails every outbound connection before any name lookup,
// so the probe loops and handoffs that an admitted joiner starts never
// leave the process, whatever URL the joiner named.
func refuseDial(context.Context, string, string) (net.Conn, error) {
	return nil, errors.New("fuzz: outbound connections are disabled")
}

// FuzzFleetJoin feeds /api/v1/fleet/join arbitrary methods and bodies
// on a live dynamic-fleet member. It may answer only 200, 400 or 405;
// a 200 body must decode as a view that admits the body's first
// member; nothing may panic.
func FuzzFleetJoin(f *testing.F) {
	srv, err := newServer(serverConfig{dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore"})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*http.Client{srv.probeClient, srv.fetchClient, srv.forwardClient} {
		c.Transport = &http.Transport{DialContext: refuseDial}
	}
	mux := srv.routes()
	self := fleet.Member{ID: "a", URL: "http://127.0.0.1:1"}
	joiner := fleet.Member{ID: "j", URL: "http://127.0.0.1:2"}

	f.Add(http.MethodPost, fleet.EncodeView(fleet.View{Epoch: 1, Members: []fleet.Member{joiner}}))
	f.Add(http.MethodPost, fleet.EncodeView(fleet.View{Epoch: 1})) // empty member list
	f.Add(http.MethodPost, fleet.EncodeView(fleet.View{Members: []fleet.Member{{URL: joiner.URL}}}))
	f.Add(http.MethodPost, fleet.EncodeView(fleet.View{Epoch: 9, Members: []fleet.Member{{ID: "a", URL: "x", Status: fleet.Leaving}}}))
	f.Add(http.MethodPost, []byte{})
	f.Add(http.MethodPost, []byte("SFMV\x01garbage"))
	f.Add(http.MethodGet, fleet.EncodeView(fleet.View{Epoch: 1, Members: []fleet.Member{joiner}}))
	f.Add(http.MethodPut, []byte("x"))
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		req, err := http.NewRequest(method, fleetJoinPath, bytes.NewReader(body))
		if err != nil {
			return // not an HTTP method a client can send
		}
		err = srv.startFleet(fleetConfig{
			self:      self,
			seeds:     []fleet.Member{self},
			probeOpts: resilience.ProbeOptions{Interval: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.fleetRuntime().stop()

		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusMethodNotAllowed:
			return
		default:
			t.Fatalf("status %d for %s with %d body bytes: %s", rec.Code, method, len(body), rec.Body.Bytes())
		}
		admitted, err := fleet.DecodeView(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("200 body is not a view: %v", err)
		}
		asked, err := fleet.DecodeView(body)
		if err != nil || len(asked.Members) == 0 {
			t.Fatalf("200 for a join body that names no member (decode error %v)", err)
		}
		if got, ok := admitted.Find(asked.Members[0].ID); !ok || got != asked.Members[0] {
			t.Fatalf("admitted view %v does not hold the joiner %+v", admitted, asked.Members[0])
		}
	})
}
