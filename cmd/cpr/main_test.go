package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/core"
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
	if err := run(dir, filepath.Join(dir, "missing.spec"), "", false, true, cpr.OptionFlags{}, 0); err == nil {
		t.Error("missing spec should error")
	}
}

// TestCompressIsNotAFlag runs main in a child process: compression is
// the engine's call, so -compress is an undefined flag (exit status 2),
// while the same command without it repairs.
func TestCompressIsNotAFlag(t *testing.T) {
	if args := os.Getenv("CPR_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"cpr"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	dir := writeFigure2a(t)
	spec := filepath.Join(dir, "policies.spec")
	if err := os.WriteFile(spec, []byte("reachable S T 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runMain := func(extra string) (int, string) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCompressIsNotAFlag$")
		cmd.Env = append(os.Environ(), "CPR_MAIN_ARGS=-configs "+dir+" -policies "+spec+" -parallel 1"+extra)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), string(out)
		} else if err != nil {
			t.Fatal(err)
		}
		return 0, string(out)
	}
	if code, out := runMain(" -compress on"); code != 2 || !strings.Contains(out, "flag provided but not defined: -compress") {
		t.Errorf("cpr -compress on: exit %d, output %q; want a flag error", code, out)
	}
	if code, out := runMain(""); code != 0 || !strings.Contains(out, "repair:") {
		t.Errorf("cpr without -compress: exit %d, output %q; want a repair", code, out)
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

// TestPrintStatsCountsOutcomes pins the -stats header: it counts the
// sub-problems by outcome, so a failed row is never headed "solved".
func TestPrintStatsCountsOutcomes(t *testing.T) {
	var out bytes.Buffer
	printStats(&out, &core.Result{Failed: 1, Stats: []core.ProblemStat{
		{Label: "d1", Outcome: core.OutcomeSolved},
		{Label: "d2", Outcome: core.OutcomeFailed, Err: "unsatisfiable"},
	}})
	head, _, _ := strings.Cut(out.String(), "\n")
	if want := "2 MaxSMT problem(s): 1 solved, 1 failed in "; !strings.HasPrefix(head, want) {
		t.Errorf("header %q, want prefix %q", head, want)
	}
	if !strings.Contains(out.String(), "outcome=failed err=unsatisfiable") {
		t.Errorf("the failed row is missing its outcome:\n%s", out.String())
	}
}
