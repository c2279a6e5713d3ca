// Command bench is this repository's benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and — in a separate
// traced run — a per-layer ledger whose rows are the repository's
// packages. README.md in this directory explains what each workload is
// for and how the metrics interact; BENCHMARK.json at the repository
// root registers the names every later performance claim is made
// against.
//
// Usage, from the repository root:
//
//	go run ./bench                              all workloads, end to end
//	go run ./bench -trace 1                     all workloads, per layer
//	go run ./bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	go run ./bench -o FILE                      also save the results
//	go run ./bench -compare A.json B.json       hold two saved sets to the bounds
//	go run ./bench -update-golden               re-pin bench/golden.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// resultSet is what -o saves and -compare reads.
type resultSet struct {
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: each in its own process)")
		seed    = flag.Int64("seed", 1, "re-labels and re-orders the inputs; never resizes them")
		seconds = flag.Int("seconds", defaultSeconds, "how long the timed region of one workload runs")
		trace   = flag.Int("trace", 0, "1: run the per-layer ledger under spans; 0: end-to-end metrics, tracing off")
		out     = flag.String("o", "", "also write the results to this file, for -compare")
		cmp     = flag.Bool("compare", false, "compare two saved result sets: bench -compare A.json B.json")
		update  = flag.Bool("update-golden", false, "regenerate "+goldenPath+" under the slow reference configuration")
	)
	flag.Parse()
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0}

	var err error
	ok := true
	switch {
	case *cmp:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		ok, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *update:
		err = updateGolden(*seed)
	case *name == "":
		ok, err = runAll(rc, *out)
	default:
		ok, err = runOne(*name, rc, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints its metric rows and
// ends standard output with the contract's one-line JSON result.
func runOne(name string, rc runConfig, out string) (bool, error) {
	w := workloadByName(name)
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	res, err := w.run(w, rc)
	if err != nil {
		return false, err
	}
	if res.Correct {
		for _, d := range res.reported() {
			if _, ok := res.Metrics[d.Name]; !ok && !rc.trace {
				res.fail("end-to-end metric %s was not measured", d.Name)
			}
		}
	}
	for _, line := range res.lines() {
		fmt.Println(line)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAILED", res.Workload+":", f)
	}
	if out != "" {
		if err := saveResults(out, &resultSet{Workloads: map[string]*result{name: res}}); err != nil {
			return false, err
		}
	}
	line, err := res.summaryLine()
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// runAll runs every workload in a process of its own, so that heap
// state and the peak-RSS high-water mark never leak from one workload
// into the next, and ends with one JSON line covering all of them.
func runAll(rc runConfig, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return false, err
	}
	set := &resultSet{Workloads: map[string]*result{}}
	ok := true
	for _, w := range workloads {
		traceArg := "0"
		if rc.trace {
			traceArg = "1"
		}
		saved := filepath.Join(traceDir, "result-"+w.name+".json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(rc.seed, 10),
			"-seconds", strconv.Itoa(rc.seconds), "-trace", traceArg, "-o", saved)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run() // waits for the child to exit
		// Pass the child's metric rows through; its JSON line is folded
		// into ours.
		rows := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
		for _, row := range rows[:len(rows)-1] {
			fmt.Println(string(row))
		}
		if _, isExit := runErr.(*exec.ExitError); runErr != nil && !isExit {
			return false, fmt.Errorf("%s: %w", w.name, runErr)
		}
		one, err := loadResults(saved)
		if err != nil || one.Workloads[w.name] == nil {
			return false, fmt.Errorf("%s: child left no result (%v)", w.name, runErr)
		}
		set.Workloads[w.name] = one.Workloads[w.name]
		ok = ok && runErr == nil
	}
	if out != "" {
		if err := saveResults(out, set); err != nil {
			return false, err
		}
	}
	summary := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Workloads map[string]*result `json:"workloads"`
	}{Correct: ok, Workloads: set.Workloads}
	for _, r := range set.Workloads {
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return ok, nil
}

func saveResults(path string, set *resultSet) error {
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResults(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}
