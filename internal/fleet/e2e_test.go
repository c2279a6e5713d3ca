package fleet

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// TestFleetE2ELoadSLO is the CI fleet-e2e gate: three cprd replicas
// behind one front, a seeded mixed load with an SLO assertion against a
// single-node baseline at equal per-replica load, then a chaos phase
// with mid-repair replica crashes that must stay invisible in the
// results. When $FLEET_SLO_REPORT names a file, the reports are written
// there for CI to archive.
func TestFleetE2ELoadSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e is slow in -short mode")
	}

	// Baseline: one bare cprd at the per-replica share of the fleet load
	// (a third of the requests, a third of the clients).
	single := httptest.NewServer(server.New(server.Config{}).Handler())
	defer single.Close()
	baseline, _, err := RunLoad(LoadOptions{
		Target: single.URL, Mix: "mixed", Requests: 60, Clients: 2, Sessions: 2, Seed: 42,
	})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseline.Errors != 0 {
		t.Fatalf("baseline run had %d errors:\n%s", baseline.Errors, baseline)
	}

	tf := newFleet(t, 3, Config{ProbeInterval: 200 * time.Millisecond})
	tf.front.Start()

	// Phase 1, no chaos: triple the total load over triple the capacity.
	report, _, err := RunLoad(LoadOptions{
		Target: tf.frontTS.URL, Mix: "mixed", Requests: 180, Clients: 6, Sessions: 2, Seed: 42,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if report.Errors != 0 {
		t.Fatalf("no-chaos fleet run had %d errors:\n%s", report.Errors, report)
	}
	if report.Sheds != 0 {
		t.Fatalf("no-chaos fleet run shed %d requests, want 0 (shed rate must be 0%%):\n%s", report.Sheds, report)
	}
	// The SLO: fleet p99 within 2× the single-node p99 at equal
	// per-replica load, plus a small constant grace so a hiccup in a
	// millisecond-scale baseline cannot flake the gate.
	slo := 2*baseline.All.P99MS + 100
	if report.All.P99MS > slo {
		t.Errorf("fleet p99 %.1fms exceeds SLO %.1fms (single-node p99 %.1fms)", report.All.P99MS, slo, baseline.All.P99MS)
	}

	// Phase 2, chaos: three mid-repair connection aborts (crashed-worker
	// behavior). Retries and failover must keep every request whole.
	if err := faultinject.Set(faultinject.ServerRepairAbort, "3*error"); err != nil {
		t.Fatalf("arming failpoint: %v", err)
	}
	defer faultinject.Reset()
	chaosReport, _, err := RunLoad(LoadOptions{
		Target: tf.frontTS.URL, Mix: "repair", Requests: 90, Clients: 3, Sessions: 2, Seed: 43,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if chaosReport.Errors != 0 {
		t.Fatalf("chaos fleet run had %d errors, failover must mask worker crashes:\n%s", chaosReport.Errors, chaosReport)
	}
	status := tf.front.Status()
	if status.Routing.Retries == 0 && status.Routing.Failovers == 0 {
		t.Error("chaos run triggered neither retries nor failovers; failpoint did not bite")
	}

	t.Logf("baseline p99 %.1fms, fleet p99 %.1fms (SLO %.1fms), skew %.2f",
		baseline.All.P99MS, report.All.P99MS, slo, report.SkewMaxOverMean)

	if path := os.Getenv("FLEET_SLO_REPORT"); path != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "=== single-node baseline (per-replica share) ===\n%s\n", baseline)
		fmt.Fprintf(&b, "=== fleet, no chaos ===\n%s\nSLO: p99 %.1fms <= %.1fms (2x single-node p99 + 100ms)\n\n", report, report.All.P99MS, slo)
		fmt.Fprintf(&b, "=== fleet, chaos (3x server/repair-abort) ===\n%s\n", chaosReport)
		fmt.Fprintf(&b, "routing: forwards=%d failovers=%d hedges=%d retries=%d no_replica=%d replications=%d\n",
			status.Routing.Forwards, status.Routing.Failovers, status.Routing.Hedges,
			status.Routing.Retries, status.Routing.NoReplica, status.Routing.Replications)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatalf("writing SLO report to %s: %v", path, err)
		}
		t.Logf("SLO report written to %s", path)
	}
}
