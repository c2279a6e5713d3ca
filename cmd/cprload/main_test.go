package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/server"
)

func TestRunAgainstSingleNode(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "report.json")
	if err := run(os.Stdout, ts.URL, "verify", 20, 2, 1, 3, jsonPath); err != nil {
		t.Fatalf("run: %v", err)
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("reading JSON report: %v", err)
	}
	var report fleet.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("decoding JSON report: %v", err)
	}
	if report.Requests != 20 || report.Errors != 0 {
		t.Errorf("report requests=%d errors=%d, want 20 and 0", report.Requests, report.Errors)
	}
	if report.Mix != "verify" || report.Seed != 3 {
		t.Errorf("report mix=%q seed=%d, want verify/3", report.Mix, report.Seed)
	}
}

func TestRunRejectsUnknownMix(t *testing.T) {
	err := run(os.Stdout, "http://127.0.0.1:0", "bogus", 1, 1, 1, 1, "")
	if err == nil || !strings.Contains(err.Error(), "unknown mix") {
		t.Fatalf("err = %v, want unknown mix", err)
	}
}
