package crosscheck

import (
	"fmt"
	"net/http/httptest"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/server"
)

// fleetWorkers is the replica count the fleet oracle routes across.
const fleetWorkers = 3

// CheckFleet runs the fleet-vs-single-node differential oracle for one
// seed: replay the same deterministic load mix (a) through a front tier
// routing across three in-process cprd workers — with one replica
// crash-aborted mid-repair by the server/repair-abort failpoint, so the
// run exercises failover — and (b) against one bare cprd; then require
// the canonical per-client operation traces to be byte-identical.
//
// This is the property the whole fleet design rests on: routing is a
// pure function of content address and ring state, worker answers are
// deterministic in the session contents, and therefore sharding,
// replication, failover, and reroutes must all be invisible in the
// answers. Latency may differ; bytes may not.
//
// A non-nil error is a *Divergence whose Files hold both traces.
func CheckFleet(seed int64) error {
	mixes := fleet.MixNames()
	opts := fleet.LoadOptions{
		Mix:      mixes[uint64(seed)%uint64(len(mixes))], // the fuzz engine picks negative seeds too
		Requests: 36,
		Clients:  2,
		Sessions: 2,
		Seed:     seed,
		Trace:    true,
	}

	// Phase A: the fleet, with one replica killed mid-repair. The
	// failpoint aborts exactly one /v1/repair connection — what a crashed
	// worker looks like to the front — and is exhausted before phase B.
	var names []string
	for i := 0; i < fleetWorkers; i++ {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		defer ts.Close()
		names = append(names, ts.URL)
	}
	front := fleet.New(fleet.Config{Replicas: names})
	frontTS := httptest.NewServer(front.Handler())
	defer frontTS.Close()
	defer front.Close()

	if err := faultinject.Set(faultinject.ServerRepairAbort, "1*error"); err != nil {
		return divf("fleet", seed, "arming failpoint: %v", err)
	}
	defer faultinject.Clear(faultinject.ServerRepairAbort)

	fleetOpts := opts
	fleetOpts.Target = frontTS.URL
	fleetReport, fleetTraces, err := fleet.RunLoad(fleetOpts)
	if err != nil {
		return divf("fleet", seed, "fleet load run failed: %v", err)
	}
	faultinject.Clear(faultinject.ServerRepairAbort)

	// Phase B: one bare cprd answering the identical schedule.
	single := httptest.NewServer(server.New(server.Config{}).Handler())
	defer single.Close()
	singleOpts := opts
	singleOpts.Target = single.URL
	singleReport, singleTraces, err := fleet.RunLoad(singleOpts)
	if err != nil {
		return divf("fleet", seed, "single-node load run failed: %v", err)
	}

	fail := func(format string, args ...interface{}) *Divergence {
		d := divf("fleet", seed, fmt.Sprintf("mix %s: %s", opts.Mix, fmt.Sprintf(format, args...)))
		d.Files = map[string]string{
			"fleet-trace.txt":  flattenTraces(fleetTraces),
			"single-trace.txt": flattenTraces(singleTraces),
			"fleet-report.txt": fleetReport.String(),
		}
		return d
	}

	if fleetReport.Errors != 0 {
		return fail("fleet run had %d failed requests (failover must mask the injected crash)", fleetReport.Errors)
	}
	if singleReport.Errors != 0 {
		return fail("single-node run had %d failed requests", singleReport.Errors)
	}
	if len(fleetTraces) != len(singleTraces) {
		return fail("trace client counts differ: fleet=%d single=%d", len(fleetTraces), len(singleTraces))
	}
	for c := range fleetTraces {
		if len(fleetTraces[c]) != len(singleTraces[c]) {
			return fail("client %d op counts differ: fleet=%d single=%d", c, len(fleetTraces[c]), len(singleTraces[c]))
		}
		for i := range fleetTraces[c] {
			if fleetTraces[c][i] != singleTraces[c][i] {
				return fail("client %d op %d diverges:\n fleet: %s\nsingle: %s", c, i, fleetTraces[c][i], singleTraces[c][i])
			}
		}
	}
	return nil
}

// flattenTraces renders per-client traces for reproducer artifacts.
func flattenTraces(traces [][]string) string {
	var b strings.Builder
	for c, tr := range traces {
		for i, line := range tr {
			fmt.Fprintf(&b, "client %d op %d: %s\n", c, i, line)
		}
	}
	return b.String()
}
