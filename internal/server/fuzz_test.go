package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cpr "repro"
	"repro/internal/config"
)

// fuzzEndpoints are the request-body endpoints FuzzServerRequest drives,
// picked by the input's first byte.
var fuzzEndpoints = []string{"/v1/load", "/v1/delta", "/v1/verify", "/v1/explain", "/v1/repair"}

// FuzzServerRequest posts arbitrary bodies to every request-body endpoint
// through the daemon's handler. Whatever the body, the handler answers
// 200, 400, 404, 429, 503 or 504 with a JSON body, and never panics. One
// server serves the whole run, with Figure 2a loaded, so the seeds (the
// requests server_test.go makes) reach a real session and the fuzzer can
// mutate them from there.
func FuzzServerRequest(f *testing.F) {
	srv := New(Config{Workers: 1, MaxSessions: 8, DefaultTimeout: 2 * time.Second, MaxTimeout: 2 * time.Second})
	h := srv.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		return rec
	}

	seed := func(endpoint int, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(endpoint), body)
	}
	configs := config.Figure2aConfigs()
	load, _ := json.Marshal(LoadRequest{Configs: configs})
	var lr LoadResponse
	if rec := post("/v1/load", load); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &lr) != nil {
		f.Fatalf("load Figure 2a: status %d, body %s", rec.Code, rec.Body)
	}
	churn := map[string]string{"C": configs["C"] + "ip access-list extended CHURN\n permit ip any any\n!\n"}
	seed(0, LoadRequest{Configs: configs})
	seed(0, LoadRequest{})
	seed(0, LoadRequest{Configs: map[string]string{"x": "hostname A\n", "y": "hostname A\n"}})
	seed(1, DeltaRequest{Session: lr.Session, Configs: churn})
	seed(1, DeltaRequest{Session: lr.Session})
	seed(2, VerifyRequest{Session: lr.Session, Policies: figure2aSpec})
	seed(2, VerifyRequest{Session: "deadbeef", Policies: figure2aSpec})
	seed(2, VerifyRequest{Session: lr.Session, Policies: "bogus policy line\n"})
	seed(3, VerifyRequest{Session: lr.Session, Policies: figure2aSpec})
	seed(4, RepairRequest{Session: lr.Session, Policies: figure2aSpec})
	seed(4, RepairRequest{Session: lr.Session, Policies: figure2aSpec, Options: cpr.OptionFlags{Granularity: "bogus"}})
	seed(4, RepairRequest{Session: lr.Session, Policies: figure2aSpec, Options: cpr.OptionFlags{Granularity: "all-tcs"}, TimeoutMS: 50})
	f.Add(uint8(2), []byte(`{"session":"`+lr.Session+`"} garbage`))
	f.Add(uint8(4), []byte(`{"options":{"granularty":"per-dst"}}`))

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := post(path, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("%s: status %d, body %s", path, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: status %d with a non-JSON reply (Content-Type %q): %s", path, rec.Code, ct, rec.Body)
		}
	})
}
