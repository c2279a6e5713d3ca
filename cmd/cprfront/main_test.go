package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/server"
)

func TestRunRequiresReplicas(t *testing.T) {
	if err := run(":0", " , ", time.Second, time.Second); err == nil {
		t.Fatal("run with no replicas should error")
	}
}

// TestRunServesAndDrainsOnSignal boots the real front binary path — one
// worker behind it — confirms it proxies a load, then delivers SIGTERM
// and expects a clean drain.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	worker := httptest.NewServer(server.New(server.Config{}).Handler())
	defer worker.Close()

	// Reserve a port, free it, and hand it to run. The tiny reuse window
	// is acceptable in tests.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(addr, worker.URL, 50*time.Millisecond, 5*time.Second)
	}()

	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	body, _ := json.Marshal(server.LoadRequest{Configs: config.Figure2aConfigs()})
	resp, err := http.Post(base+"/v1/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("load via front: %v", err)
	}
	var lr server.LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decode load: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lr.Session == "" {
		t.Fatalf("load via front: status %d, session %q", resp.StatusCode, lr.Session)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal(fmt.Errorf("front did not drain within 10s of SIGTERM"))
	}
}
