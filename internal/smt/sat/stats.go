package sat

// Stats are the solver's cumulative search counters. They are embedded
// in Solver (so s.Conflicts etc. read directly) and exported as a value
// through Snapshot for plumbing into ProblemStat, `cpr -stats`, and
// cprd's /statsz without holding a reference to the solver.
type Stats struct {
	// Conflicts, Decisions, and Propagations count the classic CDCL
	// search events.
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	// BinaryProps counts propagations served from the specialized binary
	// implication lists (a subset of Propagations' enqueue work that
	// never touches the clause arena).
	BinaryProps int64 `json:"binary_props"`
	// Restarts counts Luby restarts.
	Restarts int64 `json:"restarts"`
	// LearnedLits is the total number of literals across all learned
	// clauses (a proxy for learned-clause volume before deletion).
	LearnedLits int64 `json:"learned_lits"`
	// DBReductions counts reduceDB passes over the local learned tier.
	DBReductions int64 `json:"db_reductions"`
	// ArenaGCs counts arena compactions (garbage collections of deleted
	// clause storage with watcher/reason remapping).
	ArenaGCs int64 `json:"arena_gcs"`
	// AssumpSolves counts Solve calls made under at least one assumption
	// — the unit of work of core-guided MaxSAT descents.
	AssumpSolves int64 `json:"assump_solves"`
	// CoresExtracted counts UNSAT cores computed from failed
	// assumptions (including probes made by MinimizeCore).
	CoresExtracted int64 `json:"cores_extracted"`
	// TotalizerVars counts fresh variables materialized by incremental
	// totalizer encodings (bumped by the card package).
	TotalizerVars int64 `json:"totalizer_vars"`
	// HardenedSofts counts soft constraints promoted to hard unit
	// clauses by a MaxSAT driver's bound reasoning (stratified OLL).
	HardenedSofts int64 `json:"hardened_softs"`
}

// Snapshot returns the current counters by value.
func (s *Solver) Snapshot() Stats { return s.Stats }

// Accumulate adds b's counters into a (used when one sub-problem makes
// several solver attempts).
func (a *Stats) Accumulate(b Stats) {
	a.Conflicts += b.Conflicts
	a.Decisions += b.Decisions
	a.Propagations += b.Propagations
	a.BinaryProps += b.BinaryProps
	a.Restarts += b.Restarts
	a.LearnedLits += b.LearnedLits
	a.DBReductions += b.DBReductions
	a.ArenaGCs += b.ArenaGCs
	a.AssumpSolves += b.AssumpSolves
	a.CoresExtracted += b.CoresExtracted
	a.TotalizerVars += b.TotalizerVars
	a.HardenedSofts += b.HardenedSofts
}
