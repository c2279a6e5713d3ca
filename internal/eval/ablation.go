package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/smt/maxsat"
	"repro/internal/translate"
)

// Ablation compares CPR's design choices on one mid-size corpus network:
// problem granularity, MaxSAT algorithm, minimality objective, and the
// greedy graph-algorithm baseline of §5. Columns report wall time, the
// modeled change count, translated configuration lines, and whether the
// final state satisfies the whole specification.
func Ablation(ctx *Context) (*Report, error) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "ablation", Routers: 8, Subnets: 14, BlockedFrac: 0.3,
		FullyBlockedDsts: 1, Violations: 4, Seed: ctx.Cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	h := inst.Harc()
	orig := harc.StateOf(h)
	rep := &Report{
		ID:      "ablation",
		Title:   fmt.Sprintf("Design-choice ablation (%d routers, %d policies, %d violated)", inst.Network.NumDevices(), len(inst.Policies), len(inst.Violations())),
		Columns: []string{"variant", "time_ms", "model_changes", "lines", "spec_holds"},
	}

	addRow := func(name string, d time.Duration, changes int, st *harc.State, solved bool) error {
		lines := "-"
		holds := "no"
		if solved && st != nil {
			if bad := core.VerifyRepair(h, st, inst.Policies); len(bad) == 0 {
				holds = "yes"
			}
			cfgs, err := translate.CloneConfigs(inst.Configs)
			if err != nil {
				return err
			}
			plan, err := translate.Translate(h, orig, st, cfgs)
			if err != nil {
				return err
			}
			lines = fmt.Sprint(plan.NumLines())
		}
		changesCell := fmt.Sprint(changes)
		if !solved {
			changesCell = "DNF"
		}
		rep.Rows = append(rep.Rows, []string{name, ms(d), changesCell, lines, holds})
		return nil
	}

	variants := []struct {
		name string
		opts func() core.Options
	}{
		{"per-dst/oll (default)", core.DefaultOptions},
		{"all-tcs/oll", func() core.Options {
			o := core.DefaultOptions()
			o.Granularity = core.AllTCs
			return o
		}},
		{"per-dst/linear", func() core.Options {
			o := core.DefaultOptions()
			o.Algorithm = maxsat.LinearDescent
			return o
		}},
		{"per-dst/parallel-8", func() core.Options {
			o := core.DefaultOptions()
			o.Parallelism = 8
			return o
		}},
		{"per-dst/min-devices", func() core.Options {
			o := core.DefaultOptions()
			o.Objective = core.MinDevices
			return o
		}},
	}
	for _, v := range variants {
		res, err := core.Repair(h, inst.Policies, v.opts())
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		if err := addRow(v.name, res.Duration, res.Changes, res.State, res.Solved); err != nil {
			return nil, err
		}
	}

	// Greedy graph-algorithm baseline (§5): per-policy min-cut/max-flow.
	t0 := time.Now()
	g, err := greedy.Repair(h, inst.Policies)
	gd := time.Since(t0)
	if err != nil {
		rep.Rows = append(rep.Rows, []string{"greedy baseline (§5)", ms(gd), "-", "-", "error: " + err.Error()})
	} else {
		holds := "no"
		if g.Clean {
			holds = "yes"
		}
		rep.Rows = append(rep.Rows, []string{"greedy baseline (§5)", ms(gd), fmt.Sprint(g.Changes), "-", holds})
	}

	rep.Notes = append(rep.Notes,
		"model_changes is the MaxSMT objective (violated softs); under min-devices it counts devices touched",
		"the greedy baseline repairs policies in isolation: fast, but neither minimal nor cross-policy safe")
	return rep, nil
}
