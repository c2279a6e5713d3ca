// Command cprload replays a deterministic request mix against a cprd
// fleet (or a single cprd, for baselines) and reports SLO statistics:
// per-op latency percentiles, error/shed/reroute rates, throughput, and
// per-replica skew.
//
//	cprload -target http://localhost:8090 -mix verify -n 500 -clients 8
//	cprload -target http://localhost:8090 -mix churn -seed 7 -json report.json
//	CPR_FAILPOINTS='server/repair-abort=3*error' cprd ... # chaos on a worker
//	cprload -target http://localhost:8090 -mix repair
//
// The schedule — which client issues which op against which config
// variant, and every config byte — is a pure function of -seed and the
// shape flags; only timing varies between runs. Mixes:
//
//	verify  verification-heavy (8 verify : 1 repair : 1 delta)
//	repair  repair-heavy       (2 : 7 : 1)
//	churn   delta-heavy        (2 : 3 : 5) — exercises incremental sessions
//	mixed   balanced           (4 : 3 : 3)
//
// Virtual clients own disjoint Figure-2a config variants (distinct
// content addresses, so they spread across the ring) and treat a 404 as
// a reroute — re-load by content address, retry — and a 429/503 as a
// shed: retried, counted, never fatal. The exit status is 1 when any
// request ultimately failed.
//
// Faults are injected on the workers (CPR_FAILPOINTS); cprload itself
// injects nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fleet"
)

func main() {
	var (
		target   = flag.String("target", "http://localhost:8090", "cprfront (or cprd) base URL")
		mix      = flag.String("mix", "mixed", "request mix: "+strings.Join(fleet.MixNames(), ", "))
		n        = flag.Int("n", 200, "total requests across all clients")
		clients  = flag.Int("clients", 4, "concurrent virtual clients")
		sessions = flag.Int("sessions", 2, "config variants per client")
		seed     = flag.Int64("seed", 1, "schedule seed")
		jsonOut  = flag.String("json", "", "also write the report as JSON to this file")
	)
	flag.Parse()
	if err := run(os.Stdout, *target, *mix, *n, *clients, *sessions, *seed, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "cprload:", err)
		os.Exit(1)
	}
}

func run(out *os.File, target, mix string, n, clients, sessions int, seed int64, jsonOut string) error {
	report, _, err := fleet.RunLoad(fleet.LoadOptions{
		Target:   strings.TrimRight(target, "/"),
		Mix:      mix,
		Requests: n,
		Clients:  clients,
		Sessions: sessions,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, report)
	if jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if report.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", report.Errors, report.Requests)
	}
	return nil
}
