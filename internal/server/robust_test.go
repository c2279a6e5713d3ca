package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// postRaw posts a raw (possibly malformed) body and returns the status
// and decoded error, for tests that exercise the JSON decoding layer
// itself.
func postRaw(t *testing.T, url, path, body string) (int, errorResponse) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er
}

func TestDecodeRejectsUnknownField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lr := loadFigure2a(t, ts)

	// Top-level typo.
	st, er := postRaw(t, ts.URL, "/v1/repair",
		`{"session":"`+lr.Session+`","polcies":"always-blocked S U\n"}`)
	if st != http.StatusBadRequest {
		t.Fatalf("top-level unknown field: status = %d, want 400", st)
	}
	if !strings.Contains(er.Error, "polcies") {
		t.Errorf("error = %q, want it to name the unknown field", er.Error)
	}

	// Nested typo inside options — the field the issue report cites.
	st, er = postRaw(t, ts.URL, "/v1/repair",
		`{"session":"`+lr.Session+`","options":{"granularty":"all-tcs"}}`)
	if st != http.StatusBadRequest {
		t.Fatalf("nested unknown field: status = %d, want 400", st)
	}
	if !strings.Contains(er.Error, "granularty") {
		t.Errorf("error = %q, want it to name the nested unknown field", er.Error)
	}

	// Options that used to select a second path through the engine are
	// unknown fields now — rejected by name, never silently ignored.
	for field, opt := range map[string]string{
		"isolation": `"off"`, "algorithm": `"linear"`, "warm_start": `true`, "solve_cache": `"off"`, "no_fallback": `true`,
	} {
		st, er = postRaw(t, ts.URL, "/v1/repair",
			`{"session":"`+lr.Session+`","policies":"reachable S T 2\n","options":{"`+field+`":`+opt+`}}`)
		if st != http.StatusBadRequest || !strings.Contains(er.Error, `unknown field "`+field+`"`) {
			t.Errorf("removed option %s: status = %d error = %q, want 400 naming the unknown field", field, st, er.Error)
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	st, er := postRaw(t, ts.URL, "/v1/verify",
		`{"session":"x"} {"session":"y"}`)
	if st != http.StatusBadRequest {
		t.Fatalf("trailing object: status = %d, want 400", st)
	}
	if !strings.Contains(er.Error, "unexpected data") {
		t.Errorf("error = %q, want a trailing-data message", er.Error)
	}

	st, _ = postRaw(t, ts.URL, "/v1/load", `{"configs":{"A":"hostname A\n"}} garbage`)
	if st != http.StatusBadRequest {
		t.Fatalf("trailing token: status = %d, want 400", st)
	}
}

func TestRetryAfterSecondsDerivation(t *testing.T) {
	st := newStats()

	// No observations yet: the 1s default applies. One queued request on
	// one worker → ~2s before a slot frees; ±20% jitter keeps the hint in
	// ceil([1600ms, 2400ms]) = [2, 3].
	if got := st.retryAfterSeconds(1, 1, "k"); got < 2 || got > 3 {
		t.Errorf("empty histogram, waiting=1 workers=1: retry = %d, want 2..3", got)
	}
	// Fast solves observed: p50 collapses to the lowest bucket and the
	// hint clamps at the 1-second floor regardless of jitter.
	for i := 0; i < 10; i++ {
		st.observeLatency("/v1/repair", 500*time.Microsecond)
	}
	if got := st.retryAfterSeconds(4, 2, "k"); got != 1 {
		t.Errorf("fast p50: retry = %d, want the 1s floor", got)
	}
	// Slow solves dominate: p50 lands in the 5000ms bucket; deep queue on
	// one worker must clamp at the 30s ceiling regardless of jitter.
	for i := 0; i < 30; i++ {
		st.observeLatency("/v1/repair", 4*time.Second)
	}
	if got := st.retryAfterSeconds(20, 1, "k"); got != 30 {
		t.Errorf("slow p50, deep queue: retry = %d, want the 30s ceiling", got)
	}
	// Midrange: p50 5000ms, 1 waiting, 4 workers → 2500ms ±20% → [2, 3].
	if got := st.retryAfterSeconds(1, 4, "k"); got < 2 || got > 3 {
		t.Errorf("midrange: retry = %d, want 2..3", got)
	}
}

func TestRetryAfterJitterDeterministicAndSpread(t *testing.T) {
	// Same key → same factor, always inside the ±20% band.
	for _, key := range []string{"", "a", "session-abc123"} {
		f1, f2 := retryJitter(key), retryJitter(key)
		if f1 != f2 {
			t.Errorf("retryJitter(%q) not deterministic: %v vs %v", key, f1, f2)
		}
		if f1 < 0.8 || f1 > 1.2 {
			t.Errorf("retryJitter(%q) = %v, want within [0.8, 1.2]", key, f1)
		}
	}
	// Distinct keys must actually spread: over many keys the factors
	// cover a good part of the band, so synchronized clients desync.
	lo, hi := 2.0, 0.0
	for i := 0; i < 200; i++ {
		f := retryJitter(fmt.Sprintf("session-%d", i))
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo < 0.2 {
		t.Errorf("jitter spread over 200 keys = [%v, %v], want a spread of at least 0.2", lo, hi)
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	var rz Readyz
	if st := getJSON(t, ts, "/readyz", &rz); st != http.StatusOK || !rz.Ready {
		t.Fatalf("before drain: readyz = %d %+v, want 200 ready", st, rz)
	}

	srv.BeginDrain()
	if st := getJSON(t, ts, "/readyz", &rz); st != http.StatusServiceUnavailable || rz.Ready || !rz.Draining {
		t.Fatalf("after drain: readyz = %d %+v, want 503 draining", st, rz)
	}
	// Liveness is unaffected: the process is healthy, just not accepting
	// new work.
	var hz Healthz
	if st := getJSON(t, ts, "/healthz", &hz); st != http.StatusOK || !hz.OK {
		t.Fatalf("after drain: healthz = %d %+v, want 200 ok", st, hz)
	}
	// Draining is advisory — a request that still arrives is served.
	lr := loadFigure2a(t, ts)
	var vr VerifyResponse
	if st := postJSON(t, ts, "/v1/verify", VerifyRequest{Session: lr.Session, Policies: figure2aSpec}, &vr); st != http.StatusOK {
		t.Fatalf("verify while draining: status = %d, want 200", st)
	}
}

func TestRetryAfterHeaderComputedFromLoad(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	lr := loadFigure2a(t, ts)

	// Seed the /v1/repair histogram with slow observations so the header
	// must exceed the old hardcoded "1".
	for i := 0; i < 10; i++ {
		srv.stats.observeLatency("/v1/repair", 2*time.Second)
	}

	block := make(chan struct{})
	running := make(chan struct{})
	go func() {
		_ = srv.pool.do(context.Background(), func() {
			close(running)
			<-block
		})
	}()
	<-running
	defer close(block)

	body, _ := json.Marshal(RepairRequest{Session: lr.Session, Policies: figure2aSpec})
	resp, err := http.Post(ts.URL+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer", ra)
	}
	// p50 is the 5000ms bucket bound, 0 waiting, 1 worker → 5s.
	if secs < 2 || secs > 30 {
		t.Errorf("Retry-After = %d, want a load-derived value in [2, 30]", secs)
	}
}
