package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCapture(t *testing.T, content, algo string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "in.cnf")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.txt")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(path, algo, 0, out); err != nil {
		t.Fatal(err)
	}
	out.Close()
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCNFSat(t *testing.T) {
	got := runCapture(t, "p cnf 2 2\n1 2 0\n-1 0\n", "linear")
	if !strings.Contains(got, "s SATISFIABLE") {
		t.Fatalf("output: %s", got)
	}
	if !strings.Contains(got, "v -1 2") {
		t.Errorf("model should set -1 and 2: %s", got)
	}
}

func TestCNFUnsat(t *testing.T) {
	got := runCapture(t, "p cnf 1 2\n1 0\n-1 0\n", "linear")
	if !strings.Contains(got, "s UNSATISFIABLE") {
		t.Fatalf("output: %s", got)
	}
}

func TestWCNFOptimum(t *testing.T) {
	in := "p wcnf 2 3 10\n10 1 2 0\n3 -1 0\n1 -2 0\n"
	for _, algo := range []string{"oll", "linear"} {
		got := runCapture(t, in, algo)
		if !strings.HasPrefix(got, "o 1\n") || !strings.Contains(got, "s OPTIMUM FOUND") {
			t.Errorf("%s output: %s", algo, got)
		}
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	if err := run(filepath.Join(dir, "missing.cnf"), "linear", 0, os.Stdout); err == nil {
		t.Error("missing file should error")
	}
	path := filepath.Join(dir, "bad.cnf")
	os.WriteFile(path, []byte("garbage\n"), 0o644)
	if err := run(path, "linear", 0, os.Stdout); err == nil {
		t.Error("garbage input should error")
	}
	good := filepath.Join(dir, "ok.cnf")
	os.WriteFile(good, []byte("p cnf 1 1\n1 0\n"), 0o644)
	for _, algo := range []string{"bogus", "fu-malik"} {
		if err := run(good, algo, 0, os.Stdout); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("algorithm %q: err = %v, want a labeled unknown-algorithm error", algo, err)
		}
	}
}
