package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/server"
)

// TestSessionChurnSoak drives load → repair → delta → repair cycles over
// fleet.VariantConfigs through a server that caches four sessions, so
// evictions happen on every cycle. Throughout, /statsz retains no solver
// and no more entries than the cached sessions hold; at the end the
// server's goroutines are gone and the live heap is at most twice what it
// was after the first ten cycles.
func TestSessionChurnSoak(t *testing.T) {
	const cycles = 60
	baseGoroutines := runtime.NumGoroutine()
	srv := server.New(server.Config{MaxSessions: 4})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{}
	post := func(path string, body, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	repair := func(session string) {
		t.Helper()
		var rr server.RepairResponse
		post("/v1/repair", server.RepairRequest{Session: session, Policies: server.Figure2aSpec}, &rr)
		if !rr.Solved {
			t.Fatalf("repair of %.12s not solved", session)
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var heap10 uint64
	maxEntries := 0
	for i := 0; i < cycles; i++ {
		texts, err := fleet.VariantConfigs(i)
		if err != nil {
			t.Fatal(err)
		}
		var lr server.LoadResponse
		post("/v1/load", server.LoadRequest{Configs: texts}, &lr)
		repair(lr.Session)
		c, err := config.Parse("C", texts["C"])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SetInterfaceCost("Ethernet0/1", 1+i%9); err != nil {
			t.Fatal(err)
		}
		var dr server.DeltaResponse
		post("/v1/delta", server.DeltaRequest{Session: lr.Session, Configs: map[string]string{"C": c.Print()}}, &dr)
		repair(dr.Session)

		var sz server.Statsz
		resp, err := client.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&sz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if held := srv.SessionEntries(); sz.Retained.Solvers != 0 || sz.Retained.Entries > held || sz.SessionsCached > 4 {
			t.Fatalf("cycle %d: statsz retains %d solvers and %d entries over %d sessions, which hold %d entries; want no solver, at most 4 sessions and what they hold",
				i, sz.Retained.Solvers, sz.Retained.Entries, sz.SessionsCached, held)
		}
		maxEntries = max(maxEntries, sz.Retained.Entries)
		if i == 9 {
			heap10 = liveHeap()
		}
	}
	heapEnd := liveHeap()
	t.Logf("%d cycles: at most %d retained entries; live heap %d kB after ten cycles, %d kB at the end", cycles, maxEntries, heap10>>10, heapEnd>>10)
	if maxEntries == 0 {
		t.Error("no repair left a solve-cache entry")
	}
	if heapEnd > 2*heap10 {
		t.Errorf("live heap grew from %d kB after ten cycles to %d kB after %d", heap10>>10, heapEnd>>10, cycles)
	}

	ts.Close()
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("%d goroutines after the server closed, %d before it started", n, baseGoroutines)
	}
}
