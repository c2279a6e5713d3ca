// Command cpr repairs network control-plane configurations against a
// reachability policy specification.
//
// Usage:
//
//	cpr -configs DIR [-policies FILE] [flags]
//
// DIR must contain one *.cfg file per device. Without -policies, cpr
// infers the PC1/PC3 policies the network currently satisfies and prints
// them. With -policies, cpr verifies the specification and, if violated,
// computes a minimal repair, prints the configuration diff, and (with
// -out) writes the patched configurations.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	cpr "repro"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/prof"
)

func main() {
	var (
		configDir  = flag.String("configs", "", "directory of device *.cfg files (required)")
		policyFile = flag.String("policies", "", "policy specification file; omit to infer policies")
		outDir     = flag.String("out", "", "directory to write patched configurations")
		verifyOnly = flag.Bool("verify", false, "verify only; do not repair")
		showStats  = flag.Bool("stats", true, "print per-problem and solver statistics after a repair")
		granFlag   = flag.String("granularity", "per-dst", "MaxSMT granularity: per-dst or all-tcs")
		objFlag    = flag.String("objective", "min-lines", "minimality objective: min-lines or min-devices")
		parallel   = flag.Int("parallel", 0, "parallel per-destination solves (0 = one per core)")
		budget     = flag.Int64("budget", 0, "SAT conflict budget per problem (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "repair deadline (0 = none); exceeding it cancels the solve")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *configDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpr:", err)
		os.Exit(1)
	}
	// The same option surface as one cprd repair request (OptionFlags is
	// shared with the daemon's JSON body).
	optFlags := cpr.OptionFlags{
		Granularity:    *granFlag,
		Objective:      *objFlag,
		Parallelism:    *parallel,
		ConflictBudget: *budget,
	}
	runErr := run(*configDir, *policyFile, *outDir, *verifyOnly, *showStats, optFlags, *timeout)
	if perr := stopProf(); perr != nil && runErr == nil {
		runErr = perr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "cpr:", runErr)
		os.Exit(1)
	}
}

func run(configDir, policyFile, outDir string, verifyOnly, showStats bool, optFlags cpr.OptionFlags, timeout time.Duration) error {
	texts, err := readConfigs(configDir)
	if err != nil {
		return err
	}
	sys, err := cpr.Load(texts)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d devices, %d subnets, %d links, %d traffic classes\n",
		sys.Network.NumDevices(), len(sys.Network.Subnets), len(sys.Network.Links),
		len(sys.Network.TrafficClasses()))

	if policyFile == "" {
		inferred := sys.InferPolicies()
		fmt.Printf("# inferred policies (%d)\n%s", len(inferred), policy.Format(inferred))
		return nil
	}
	specText, err := os.ReadFile(policyFile)
	if err != nil {
		return err
	}
	policies, err := sys.ParsePolicies(string(specText))
	if err != nil {
		return err
	}
	violated := sys.Verify(policies)
	fmt.Printf("policies: %d total, %d violated\n", len(policies), len(violated))
	for _, line := range sys.Explain(policies) {
		fmt.Println("  ✗", line)
	}
	if verifyOnly || len(violated) == 0 {
		return nil
	}

	opts, err := optFlags.Resolve()
	if err != nil {
		return err
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rep, err := sys.RepairCtx(ctx, policies, opts)
	if err != nil {
		return err
	}
	if showStats {
		printStats(os.Stdout, rep.Result)
	}
	if !rep.Usable() {
		return fmt.Errorf("no repair found (specification unsatisfiable or budget exhausted)")
	}
	if !rep.Solved() {
		fmt.Printf("partial repair: %d destination(s) failed (see statuses above)\n", rep.Result.Failed)
	}
	fmt.Printf("repair: %d configuration lines, %d waypoint changes\n",
		rep.Plan.NumLines(), len(rep.Plan.Waypoints))
	fmt.Print(rep.Plan)

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		for host, text := range rep.PatchedConfigs {
			path := filepath.Join(outDir, host+".cfg")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("patched configurations written to %s\n", outDir)
	}
	return nil
}

func printStats(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "%d MaxSMT problem(s): %d solved, %d failed in %v (sequential %v)\n", len(res.Stats),
		len(res.Stats)-res.Failed, res.Failed, res.Duration.Round(1e6), res.Sequential.Round(1e6))
	if res.Compressed > 0 || res.CompressFallbacks > 0 {
		fmt.Fprintf(w, "compression: %d problem(s) solved on quotients, %d fell back uncompressed\n",
			res.Compressed, res.CompressFallbacks)
	}
	for _, st := range res.Stats {
		extra := ""
		if st.Outcome != core.OutcomeSolved {
			extra = " outcome=" + st.Outcome.String()
			if st.Err != "" {
				extra += " err=" + st.Err
			}
		}
		if st.Attempts > 1 {
			extra += fmt.Sprintf(" attempts=%d", st.Attempts)
		}
		if st.Compressed {
			extra += fmt.Sprintf(" compressed=%d/%d(%.1fx)",
				st.QuotientDevices, st.DeviceClasses, st.CompressRatio)
		} else if st.CompressFallback != "" {
			extra += " compress-fallback=" + st.CompressFallback
		}
		extra += stageBreakdown(st)
		fmt.Fprintf(w, "  %-12s tcs=%-4d policies=%-4d vars=%-7d softs=%-5d violated=%-3d %v %s%s\n",
			st.Label, st.TCs, st.Policies, st.Vars, st.Softs, st.Violations,
			st.Duration.Round(1e5), st.Status, extra)
	}
	sv := res.Solver
	fmt.Fprintf(w, "solver: conflicts=%d decisions=%d propagations=%d (binary %d) restarts=%d learned-lits=%d db-reductions=%d arena-gcs=%d\n",
		sv.Conflicts, sv.Decisions, sv.Propagations, sv.BinaryProps,
		sv.Restarts, sv.LearnedLits, sv.DBReductions, sv.ArenaGCs)
	fmt.Fprintf(w, "maxsat: assumption-solves=%d cores=%d totalizer-vars=%d hardened-softs=%d\n",
		sv.AssumpSolves, sv.CoresExtracted, sv.TotalizerVars, sv.HardenedSofts)
}

// stageBreakdown renders a sub-problem's per-stage wall-clock split
// (" stages[...]"), or "" when no stage was timed.
func stageBreakdown(st core.ProblemStat) string {
	stages := []struct {
		name string
		ns   int64
	}{
		{"harc", st.HarcBuildNs},
		{"encode", st.EncodeNs},
		{"solve", st.SolveNs},
		{"concretize", st.ConcretizeNs},
		{"reverify", st.ReverifyNs},
	}
	out := ""
	for _, s := range stages {
		if s.ns == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%v", s.name, time.Duration(s.ns).Round(1e5))
	}
	if out == "" {
		return ""
	}
	return " stages[" + out + "]"
}

func readConfigs(dir string) (map[string]string, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "*.cfg"))
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no *.cfg files in %s", dir)
	}
	out := make(map[string]string, len(entries))
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), ".cfg")
		out[name] = string(data)
	}
	return out, nil
}
