package cpr_test

import (
	"reflect"
	"testing"

	cpr "repro"
	"repro/internal/fleet"
	"repro/internal/server"
)

// TestOptionSurface pins every settable struct of the product by name:
// the engine's options and the runtime configurations of cprd, the front
// tier and the load generator.
//
// The rule for growing an option list: a new field needs two callers
// outside tests and examples that set it to different values — with one
// value in use it is a constant, and a value the engine can work out
// from its inputs (as it does the retry bound, the watchdog share and
// the fallback from whether the problem froze the aETG) is a derivation,
// not an option. core.Options has two documented exceptions, both
// settable by no product path: Compress, with which tests and the
// benchmark's reference configuration pin one side of the engine's
// compression rule, and CompressRedundancy, with which the compression
// oracle and two core tests force a lossless quotient.
//
// Deployment settings are the other kind of field: what an operator
// must say about the host a daemon runs on. They are server.Config's
// capacities and deadlines and fleet.Config's replicas and probe
// interval, one daemon flag each. They change where and when work runs,
// never an answer. A knob that tunes a mechanism instead of describing
// the deployment (the front's retries, hedge delay, session replicas)
// is a constant until a measurement prices it.
func TestOptionSurface(t *testing.T) {
	fields := func(v any) []string {
		typ := reflect.TypeOf(v)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, typ.Field(i).Name)
		}
		return names
	}
	for _, c := range []struct {
		name string
		v    any
		want []string
	}{
		{"OptionFlags", cpr.OptionFlags{}, []string{
			"Granularity", "Objective", "Parallelism", "ConflictBudget",
		}},
		{"core.Options", cpr.Options{}, []string{
			"Granularity", "Algorithm", "Objective", "Parallelism",
			"ConflictBudget", "Compress", "CompressRedundancy", "Cache",
		}},
		{"server.Config", server.Config{}, []string{
			"MaxSessions", "Workers", "QueueDepth", "DefaultTimeout", "MaxTimeout",
		}},
		{"fleet.Config", fleet.Config{}, []string{"Replicas", "ProbeInterval"}},
		{"fleet.LoadOptions", fleet.LoadOptions{}, []string{
			"Target", "Mix", "Requests", "Clients", "Sessions", "Seed", "Trace", "HTTPClient",
		}},
	} {
		if got := fields(c.v); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s fields = %v, want %v", c.name, got, c.want)
		}
	}
}
