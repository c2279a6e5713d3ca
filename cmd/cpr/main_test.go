package main

import (
	"os"
	"path/filepath"
	"testing"

	cpr "repro"
	"repro/internal/config"
)

func writeFigure2a(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range config.Figure2aConfigs() {
		if err := os.WriteFile(filepath.Join(dir, name+".cfg"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestReadConfigs(t *testing.T) {
	dir := writeFigure2a(t)
	texts, err := readConfigs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) != 3 {
		t.Fatalf("read %d configs, want 3", len(texts))
	}
	if _, err := readConfigs(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

func TestRunInferMode(t *testing.T) {
	dir := writeFigure2a(t)
	if err := run(dir, "", "", false, true, cpr.OptionFlags{Granularity: "per-dst", Parallelism: 1}, 0); err != nil {
		t.Fatalf("infer mode: %v", err)
	}
}

func TestRunVerifyOnly(t *testing.T) {
	dir := writeFigure2a(t)
	spec := filepath.Join(dir, "policies.spec")
	if err := os.WriteFile(spec, []byte("always-blocked S U\nreachable S T 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, spec, "", true, true, cpr.OptionFlags{Granularity: "per-dst", Parallelism: 1}, 0); err != nil {
		t.Fatalf("verify mode: %v", err)
	}
}

func TestRunRepairWritesPatchedConfigs(t *testing.T) {
	dir := writeFigure2a(t)
	spec := filepath.Join(dir, "policies.spec")
	specText := "always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n"
	if err := os.WriteFile(spec, []byte(specText), 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := run(dir, spec, out, false, true, cpr.OptionFlags{Granularity: "per-dst", Parallelism: 2}, 0); err != nil {
		t.Fatalf("repair: %v", err)
	}
	// Patched configs exist, re-parse, and satisfy the spec.
	patched, err := readConfigs(out)
	if err != nil {
		t.Fatalf("patched configs missing: %v", err)
	}
	if len(patched) != 3 {
		t.Fatalf("patched %d configs, want 3", len(patched))
	}
	// Re-run in verify mode against the patched directory.
	spec2 := filepath.Join(out, "policies.spec")
	if err := os.WriteFile(spec2, []byte(specText), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(out, spec2, "", true, true, cpr.OptionFlags{Granularity: "per-dst", Parallelism: 1}, 0); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
}

func TestRunAllTCs(t *testing.T) {
	dir := writeFigure2a(t)
	spec := filepath.Join(dir, "policies.spec")
	if err := os.WriteFile(spec, []byte("reachable S T 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, spec, "", false, true, cpr.OptionFlags{Granularity: "all-tcs", Parallelism: 1}, 0); err != nil {
		t.Fatalf("all-tcs: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	dir := writeFigure2a(t)
	spec := filepath.Join(dir, "policies.spec")
	if err := os.WriteFile(spec, []byte("reachable S T 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, spec, "", false, true, cpr.OptionFlags{Granularity: "bogus", Parallelism: 1}, 0); err == nil {
		t.Error("bad granularity should error")
	}
	if err := run(dir, spec, "", false, true, cpr.OptionFlags{Granularity: "per-dst", Compress: "bogus", Parallelism: 1}, 0); err == nil {
		t.Error("bad compress mode should error")
	}
	if err := run(dir, filepath.Join(dir, "missing.spec"), "", false, true, cpr.OptionFlags{}, 0); err == nil {
		t.Error("missing spec should error")
	}
}

func TestRunUnsatisfiableSpec(t *testing.T) {
	dir := writeFigure2a(t)
	spec := filepath.Join(dir, "policies.spec")
	if err := os.WriteFile(spec, []byte("always-blocked S T\nreachable S T 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, spec, "", false, true, cpr.OptionFlags{Granularity: "per-dst", Parallelism: 1}, 0); err == nil {
		t.Error("unsatisfiable spec should surface an error")
	}
}
