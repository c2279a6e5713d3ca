// Package cpr is the public API of this CPR reproduction: automatic,
// minimal repair of distributed network control-plane configurations
// against reachability policies, after "Automatically Repairing Network
// Control Planes Using an Abstract Representation" (SOSP 2017).
//
// Typical use:
//
//	sys, err := cpr.Load(map[string]string{"A": cfgA, "B": cfgB, "C": cfgC})
//	policies, err := sys.ParsePolicies("reachable S T 2\nalways-blocked S U\n")
//	violated := sys.Verify(policies)
//	rep, err := sys.Repair(policies, cpr.DefaultOptions())
//	fmt.Print(rep.Plan)                  // diff-style config changes
//	text := rep.PatchedConfigs["A"]      // repaired configuration text
//
// The heavy lifting lives in internal packages: internal/arc and
// internal/harc implement the (hierarchical) abstract representation,
// internal/core the MaxSMT repair engine over a from-scratch CDCL
// SAT/MaxSAT stack (internal/smt/...), and internal/translate the
// mapping from repaired models back to configuration lines.
package cpr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/translate"
)

// Re-exported types, so most callers need only this package.
type (
	// Policy is one reachability requirement (PC1-PC4 of the paper).
	Policy = policy.Policy
	// Options configures the repair engine (granularity, MaxSAT
	// algorithm, objective, parallelism, budgets, compression).
	Options = core.Options
	// Result carries solver-level statistics of a repair.
	Result = core.Result
	// Plan is the translated set of configuration line changes.
	Plan = translate.Plan
	// Network is the semantic network model.
	Network = topology.Network
	// TrafficClass is an ordered (source, destination) subnet pair.
	TrafficClass = topology.TrafficClass
)

// Policy class constants (Table 1).
const (
	AlwaysBlocked  = policy.AlwaysBlocked
	AlwaysWaypoint = policy.AlwaysWaypoint
	KReachable     = policy.KReachable
	PrimaryPath    = policy.PrimaryPath
)

// Granularities of the MaxSMT decomposition (§5.3).
const (
	AllTCs = core.AllTCs
	PerDst = core.PerDst
)

// Minimality objectives (§5.2).
const (
	MinLines   = core.MinLines
	MinDevices = core.MinDevices
)

// DefaultOptions returns the paper's default configuration
// (maxsmt-per-dst, core-guided OLL MaxSAT).
func DefaultOptions() Options { return core.DefaultOptions() }

// System is a loaded network: parsed configurations, the extracted
// semantic model, and its HARC.
type System struct {
	Configs map[string]*config.Config
	Network *Network
	HARC    *harc.HARC
}

// Load parses the given configurations (keyed by any label; hostnames
// come from the text) and builds the network model and HARC.
func Load(configs map[string]string) (*System, error) {
	parsed, err := parseLabeled(configs)
	if err != nil {
		return nil, err
	}
	return systemFromParsed(parsed)
}

// parseLabeled parses every configuration text, keyed by its label.
func parseLabeled(configs map[string]string) (map[string]*config.Config, error) {
	out := make(map[string]*config.Config, len(configs))
	for _, k := range sortedLabels(configs) {
		c, err := config.Parse(k, configs[k])
		if err != nil {
			return nil, err
		}
		out[k] = c
	}
	return out, nil
}

// systemFromParsed builds the network model and HARC from parsed
// configurations keyed by label. Parsed configs may be shared between
// systems (Session.Delta reuses unchanged ones): Extract and the repair
// pipeline treat them as read-only, and translate clones before
// patching.
func systemFromParsed(parsed map[string]*config.Config) (*System, error) {
	byHost := make(map[string]*config.Config, len(parsed))
	labelOf := make(map[string]string, len(parsed))
	ordered := make([]*config.Config, 0, len(parsed))
	for _, k := range sortedLabels(parsed) {
		c := parsed[k]
		ordered = append(ordered, c)
		if prev, ok := labelOf[c.Hostname]; ok {
			return nil, fmt.Errorf("cpr: duplicate hostname %q (configs %q and %q)", c.Hostname, prev, k)
		}
		labelOf[c.Hostname] = k
		byHost[c.Hostname] = c
	}
	n, err := config.Extract(ordered)
	if err != nil {
		return nil, err
	}
	return &System{Configs: byHost, Network: n, HARC: harc.Build(n)}, nil
}

// sortedLabels returns the map's keys in ascending order.
func sortedLabels[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParsePolicies parses a policy specification (one policy per line; see
// the README for the grammar) against the system's subnets and devices.
func (s *System) ParsePolicies(text string) ([]Policy, error) {
	return policy.Parse(s.Network, text)
}

// InferPolicies derives the PC1/PC3 policies the network currently
// satisfies, the procedure used for networks without a written
// specification (§8).
func (s *System) InferPolicies() []Policy {
	return policy.Infer(s.HARC)
}

// Verify returns the policies the network currently violates.
func (s *System) Verify(policies []Policy) []Policy {
	violated, _ := s.VerifyCtx(context.Background(), policies)
	return violated
}

// VerifyCtx is Verify under a context: the sweep
// (policy.StateChecker.Violations, one worker per core) looks at ctx
// before each destination and before each check of its own, and returns
// ctx's error if it stopped. Verification is graph work (no solver), so
// cancellation granularity is one destination or one policy.
func (s *System) VerifyCtx(ctx context.Context, policies []Policy) ([]Policy, error) {
	return policy.NewStateChecker(s.HARC, nil).Violations(ctx, policies, nil, runtime.GOMAXPROCS(0))
}

// Explain returns one human-readable counterexample line per violated
// policy: the offending path, the disconnecting failure scenario, or the
// shortcut taken instead of the primary path.
func (s *System) Explain(policies []Policy) []string {
	return policy.ExplainAll(s.HARC, policies)
}

// Repair computes a minimal repair satisfying every policy and
// translates it to configuration patches. The receiver is not modified;
// patched configuration texts are returned in RepairOutput.
func (s *System) Repair(policies []Policy, opts Options) (*RepairOutput, error) {
	return s.RepairCtx(context.Background(), policies, opts)
}

// ErrUnfaithfulPatch is wrapped by the error RepairCtx returns when a
// compressed repair's patched text, parsed again, violates a policy the
// repair's own state satisfies: a translation fault, not an input fault.
var ErrUnfaithfulPatch = errors.New("cpr: unfaithful patch")

// RepairCtx is Repair under a context. Cancellation propagates into the
// CDCL solver's search loop, so a timed-out or abandoned repair stops
// consuming CPU promptly and RepairCtx returns ctx's error. An answer
// core's acceptance gate rejected is a failed sub-problem, not an error.
// A compressed repair whose text fails its read-back is an error wrapping
// ErrUnfaithfulPatch that names the first policy the text violates.
func (s *System) RepairCtx(ctx context.Context, policies []Policy, opts Options) (*RepairOutput, error) {
	res, err := core.RepairCtx(ctx, s.HARC, policies, opts)
	if err != nil {
		return nil, err
	}
	out := &RepairOutput{Result: res}
	// A partial result is still worth translating: every solved
	// destination's repair passed core's acceptance gate and is patched,
	// while failed destinations are reported in Result.Stats.
	if !res.Usable() {
		return out, nil
	}
	cfgs, err := translate.CloneConfigs(s.Configs)
	if err != nil {
		return nil, err
	}
	plan, err := translate.Translate(s.HARC, res.Orig, res.State, cfgs)
	if err != nil {
		return nil, err
	}
	out.Plan = plan
	out.PatchedConfigs = make(map[string]string, len(cfgs))
	for host, c := range cfgs {
		out.PatchedConfigs[host] = c.Print()
	}
	// Symmetry-compressed repairs already passed the gate per sub-problem
	// on the uncompressed HARC; the read-back replays the patched
	// configuration text through the parser and verifies the repaired
	// policies on the network it actually describes.
	if res.Compressed > 0 {
		if err := verifyPatchedConfigs(ctx, out.PatchedConfigs, res.Repaired, res.State); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verifyPatchedConfigs re-parses patched configuration text and checks
// the given policies against the state of the network it describes,
// restricted to the policies' traffic classes (building the full
// all-pairs HARC would dwarf the repair itself on large networks).
// Checks find a class's rows by subnet name, so the policies need no
// rebinding; the classes are bound to the re-parsed network's subnets.
// It returns nil when every policy holds on the text, ctx's error if it
// stopped, and otherwise an error wrapping ErrUnfaithfulPatch that says
// why: the first policy that fails, or the text that does not load.
//
// Fast path: when the re-parsed network's state reads the same as the
// already-verified repaired state `want` (on everything a policy check
// reads), every verdict must agree with the verified one, so the
// per-policy graph checks are skipped entirely. Any difference falls back
// to checking every policy on the re-parsed state. The cpr/replay-error
// failpoint skips the fast path and fails the first policy.
func verifyPatchedConfigs(ctx context.Context, patched map[string]string, policies []Policy, want *harc.State) error {
	forced := faultinject.Eval(faultinject.CPRReplayError) != nil
	byLabel, err := parseLabeled(patched)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnfaithfulPatch, err)
	}
	parsed := make([]*config.Config, 0, len(byLabel))
	for _, k := range sortedLabels(byLabel) {
		parsed = append(parsed, byLabel[k])
	}
	n, err := config.Extract(parsed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnfaithfulPatch, err)
	}
	seen := map[string]bool{}
	var tcs []TrafficClass
	for _, p := range policies {
		for i, tc := range []TrafficClass{p.TC, p.TC2} {
			if i == 1 && p.Kind != policy.Isolated {
				break
			}
			if tc.Src == nil || tc.Dst == nil || n.Subnet(tc.Src.Name) == nil || n.Subnet(tc.Dst.Name) == nil {
				return fmt.Errorf("%w: %s names a subnet the patched text lacks", ErrUnfaithfulPatch, p)
			}
			if !seen[tc.Key()] {
				seen[tc.Key()] = true
				tcs = append(tcs, TrafficClass{Src: n.Subnet(tc.Src.Name), Dst: n.Subnet(tc.Dst.Name)})
			}
		}
	}
	h := harc.BuildLite(n, tcs)
	got := harc.StateOf(h)
	if !forced && want != nil && patchedStateMatches(got, want, h.Dsts, tcs) {
		return nil
	}
	checker := policy.NewStateChecker(h, got)
	for _, p := range policies {
		if err := ctx.Err(); err != nil {
			return err
		}
		if forced || !checker.Check(p) {
			return fmt.Errorf("%w: %s fails on the patched text", ErrUnfaithfulPatch, p)
		}
	}
	return nil
}

// patchedStateMatches compares the state extracted from re-parsed
// patched configs with the verified repaired state, over everything the
// policy verifiers read: per-class and per-destination presence for the
// given classes (and their destinations dsts), waypoints, and the weight
// of every present edge. Equality means the patched network's graphs are
// the repaired state's graphs, so every verified verdict transfers; the
// construct rows (route filters, statics) only feed presence and weights
// and need no separate comparison. The two states come from different
// networks: when their slot tables are not the same shape (the patch
// changed the slot-key sequence) nothing can be compared word for word,
// and the caller falls back to the full checks.
func patchedStateMatches(got, want *harc.State, dsts []*topology.Subnet, tcs []TrafficClass) bool {
	if !got.SameShape(want) || !got.Waypoint.Equal(want.Waypoint) {
		return false
	}
	for _, tc := range tcs {
		// Rows are found by name in each state; a class the verified state
		// does not cover reads as a nil row and never matches.
		if !got.TCBits(tc).Equal(want.TCBits(tc)) || !got.DstBits(tc.Dst).Equal(want.DstBits(tc.Dst)) {
			return false
		}
	}
	return got.WeighAlike(want, dsts)
}

// RepairOutput bundles a repair's solver result, its configuration
// patch plan, and the patched configuration texts.
type RepairOutput struct {
	Result         *Result
	Plan           *Plan
	PatchedConfigs map[string]string
}

// Solved reports whether every sub-problem found an optimal repair.
func (r *RepairOutput) Solved() bool { return r.Result != nil && r.Result.Solved }

// Usable reports whether at least one sub-problem's answer passed the
// acceptance gate, i.e. the output carries a patch worth applying even
// though some destinations may have failed.
func (r *RepairOutput) Usable() bool { return r.Result != nil && r.Result.Usable() }
