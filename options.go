package cpr

import (
	"fmt"

	"repro/internal/core"
)

// OptionFlags is the string-level repair option surface shared by the
// cpr CLI flags and cprd's JSON request bodies, so both front ends
// accept identical spellings. Zero values mean "use the default". These
// five are the choices an operator makes; everything else the engine
// derives or fixes (see core.Options), and cprd rejects any other field
// name as unknown rather than ignoring it.
type OptionFlags struct {
	// Granularity is "per-dst" (default) or "all-tcs".
	Granularity string `json:"granularity,omitempty"`
	// Objective is "min-lines" (default) or "min-devices".
	Objective string `json:"objective,omitempty"`
	// Parallelism bounds concurrent per-destination solves. Zero (the
	// default) means one worker per core (runtime.GOMAXPROCS); negative
	// values are rejected. Results are identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
	// ConflictBudget bounds each SAT call (0 = unlimited).
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	// Compress is "auto" (default: compress eligible sub-problems on
	// networks with at least 24 devices), "on", or "off" — Bonsai-style
	// symmetry compression with concrete re-verification.
	Compress string `json:"compress,omitempty"`
}

// Resolve converts the string-level flags into engine Options, rejecting
// unknown spellings.
func (f OptionFlags) Resolve() (Options, error) {
	opts := DefaultOptions()
	switch f.Granularity {
	case "", "per-dst":
		opts.Granularity = core.PerDst
	case "all-tcs":
		opts.Granularity = core.AllTCs
	default:
		return opts, fmt.Errorf("unknown granularity %q (want per-dst or all-tcs)", f.Granularity)
	}
	switch f.Objective {
	case "", "min-lines":
		opts.Objective = core.MinLines
	case "min-devices":
		opts.Objective = core.MinDevices
	default:
		return opts, fmt.Errorf("unknown objective %q (want min-lines or min-devices)", f.Objective)
	}
	if f.Parallelism < 0 {
		return opts, fmt.Errorf("negative parallelism %d", f.Parallelism)
	}
	opts.Parallelism = f.Parallelism
	if f.ConflictBudget < 0 {
		return opts, fmt.Errorf("negative conflict budget %d", f.ConflictBudget)
	}
	opts.ConflictBudget = f.ConflictBudget
	switch f.Compress {
	case "", "auto":
		opts.Compress = core.CompressAuto
	case "on":
		opts.Compress = core.CompressOn
	case "off":
		opts.Compress = core.CompressOff
	default:
		return opts, fmt.Errorf("unknown compress %q (want auto, on, or off)", f.Compress)
	}
	return opts, nil
}
