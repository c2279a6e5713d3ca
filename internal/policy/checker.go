package policy

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arc"
	"repro/internal/harc"
)

// StateChecker verifies policies against one HARC state. It reads the
// state's rows in place: a class's tcETG is a view of its row and PC4's
// routing graph is laid from its destination's row, both weighted by the
// state's SlotCost (harc.BuildTCETGFromState, BuildRoutingETGFromState).
// Check reads the HARC's own state the same way. A StateChecker may be
// shared by concurrent verifiers; the state must not change while it is
// in use.
type StateChecker struct {
	h  *harc.HARC
	st *harc.State // nil: the HARC's own state
}

// NewStateChecker returns a checker over the given state, which it reads
// and never writes.
func NewStateChecker(h *harc.HARC, st *harc.State) *StateChecker {
	return &StateChecker{h: h, st: st}
}

// Check verifies one policy against the checker's state. On the HARC's own
// state, a PC1, PC2 or PC3 verdict is made at most once per class (and, for
// PC3, per K the record cannot infer) and kept in the HARC's record
// (harc.Verdicts); PC4 and isolation are checked every time.
func (c *StateChecker) Check(p Policy) bool {
	if c.st != nil {
		return c.check(p)
	}
	r := c.h.TCRow(p.TC)
	if r < 0 {
		return c.check(p)
	}
	v := c.h.Verdicts()
	if holds, known := recorded(v, p, r); known {
		return holds
	}
	holds := c.check(p)
	switch p.Kind {
	case AlwaysBlocked:
		v.SetFlag(r, harc.VerdictBlocked, holds)
	case AlwaysWaypoint:
		v.SetFlag(r, harc.VerdictWaypoint, holds)
	case KReachable:
		v.SetAtLeast(r, p.K, holds)
	}
	return holds
}

// recorded returns the record's verdict on p for class row r, when it
// keeps one.
func recorded(v *harc.Verdicts, p Policy, r int) (holds, known bool) {
	switch p.Kind {
	case AlwaysBlocked:
		return v.Flag(r, harc.VerdictBlocked)
	case AlwaysWaypoint:
		return v.Flag(r, harc.VerdictWaypoint)
	case KReachable:
		return v.AtLeast(r, p.K)
	}
	return false, false
}

// Violations returns the policies the checker's state violates, in input
// order, sweeping them by destination on at most workers goroutines; keep,
// when not nil, limits the sweep to the policies it keeps. On the HARC's
// own state the record answers what it knows before anything is
// scheduled, and keeps what the sweep learns. PC3 at K ≤ 2 on a clean
// class — one whose row is its destination's plus its own source
// attachments — is answered by one post-dominator tree per destination
// (harc.DstFlows), exactly as its flow would be, and recorded as the exact
// min(2, flow); every other policy gets its own Check. The sweep looks at
// ctx before each destination and before each check of its own, and
// returns ctx's error if it stopped.
func (c *StateChecker) Violations(ctx context.Context, policies []Policy, keep func(Policy) bool, workers int) ([]Policy, error) {
	sw := sweepPool.Get().(*sweep)
	defer sw.release()
	sw.plan(ctx, c, policies, keep)
	if n := len(sw.units) + len(sw.others); n > 0 {
		harc.ParallelFor(n, workers, sw.unit)
		if sw.stopped.Load() {
			return nil, ctx.Err()
		}
	}
	var out []Policy
	for i, p := range policies {
		if sw.bad[i] {
			out = append(out, p)
		}
	}
	return out, nil
}

// sweep is one Violations call: its plan, its verdicts and the units its
// workers take. It is pooled — a repair sweeps once per destination — and
// holds what the call's checker, context and policies are only while the
// call runs.
type sweep struct {
	c        *StateChecker
	ctx      context.Context
	policies []Policy
	v        *harc.Verdicts // the record, on the HARC's own state

	// The policies left to check, in buckets, CSR form: bucket d < nd
	// holds those a tree toward destination row d may answer, bucket nd the
	// rest. rows[i] is policy i's class row in a tree bucket, -1 in bucket
	// nd, -2 when it is answered or not kept. units lists the destinations
	// with a bucket to answer; others is bucket nd.
	rows, off, order, units, others []int32
	bad                             []bool
	stopped                         atomic.Bool
}

var sweepPool = sync.Pool{New: func() any { return new(sweep) }}

// release lets go of the call's checker, context and policies and returns
// the sweep to its pool.
func (sw *sweep) release() {
	sw.c, sw.ctx, sw.policies, sw.v = nil, nil, nil, nil
	sweepPool.Put(sw)
}

// plan answers from the record what it can and buckets the rest.
func (sw *sweep) plan(ctx context.Context, c *StateChecker, policies []Policy, keep func(Policy) bool) {
	lay := c.h.Layout
	sw.c, sw.ctx, sw.policies, sw.v = c, ctx, policies, nil
	if c.st != nil {
		lay = c.st.Layout()
	} else {
		sw.v = c.h.Verdicts()
	}
	sw.stopped.Store(false)
	n, nd := len(policies), len(lay.Dsts)
	sw.rows = slices.Grow(sw.rows[:0], n)[:n]
	sw.bad = slices.Grow(sw.bad[:0], n)[:n]
	clear(sw.bad)
	// Counted two entries ahead: after the prefix sums entry b+1 is bucket
	// b's fill cursor, and ends on its end.
	sw.off = slices.Grow(sw.off[:0], nd+3)[:nd+3]
	clear(sw.off)
	rows, off := sw.rows, sw.off
	bucket := func(i int) int {
		if r := rows[i]; r >= 0 {
			return lay.DstOf(int(r))
		}
		return nd
	}
	for i, p := range policies {
		rows[i] = -2
		if keep != nil && !keep(p) {
			continue
		}
		tree := p.Kind == KReachable && p.K >= 1 && p.K <= 2
		r := -1
		if tree || sw.v != nil {
			r = lay.TCRow(p.TC)
		}
		if sw.v != nil && r >= 0 {
			if holds, known := recorded(sw.v, p, r); known {
				sw.bad[i] = !holds
				continue
			}
		}
		rows[i] = -1
		if tree && r >= 0 {
			rows[i] = int32(r)
		}
		off[bucket(i)+2]++
	}
	for b := 2; b < len(off); b++ {
		off[b] += off[b-1]
	}
	sw.order = slices.Grow(sw.order[:0], int(off[len(off)-1]))[:off[len(off)-1]]
	for i := range policies {
		if rows[i] != -2 {
			b := bucket(i)
			sw.order[off[b+1]] = int32(i)
			off[b+1]++
		}
	}
	sw.units = sw.units[:0]
	for d := int32(0); d < int32(nd); d++ {
		if off[d] < off[d+1] {
			sw.units = append(sw.units, d)
		}
	}
	sw.others = sw.order[off[nd]:off[nd+1]]
}

// unit runs unit u: a destination's bucket for u < len(units), else one
// other policy.
func (sw *sweep) unit(u int) {
	if u >= len(sw.units) {
		sw.check(sw.others[u-len(sw.units)])
		return
	}
	if sw.ctx.Err() != nil {
		sw.stopped.Store(true)
		return
	}
	d := sw.units[u]
	flows := harc.NewDstFlows(sw.c.h, sw.c.st, int(d))
	for _, i := range sw.order[sw.off[d]:sw.off[d+1]] {
		r, k := int(sw.rows[i]), sw.policies[i].K
		if sw.v != nil {
			if holds, known := sw.v.AtLeast(r, k); known {
				sw.bad[i] = !holds
				continue
			}
		}
		if f, ok := flows.Flow(r); ok {
			if sw.v != nil {
				sw.v.SetFlow(r, f, 2)
			}
			sw.bad[i] = f < k
			continue
		}
		sw.check(i)
	}
	flows.Release()
}

// check gives policy i its own Check, unless the sweep's context is done.
func (sw *sweep) check(i int32) {
	if sw.ctx.Err() != nil {
		sw.stopped.Store(true)
		return
	}
	sw.bad[i] = !sw.c.Check(sw.policies[i])
}

// check computes one verdict on the checker's state.
func (c *StateChecker) check(p Policy) bool {
	etg := harc.BuildTCETGFromState(c.h, c.st, p.TC)
	switch p.Kind {
	case AlwaysBlocked:
		return arc.VerifyAlwaysBlocked(etg)
	case AlwaysWaypoint:
		return arc.VerifyAlwaysWaypoint(etg)
	case KReachable:
		return arc.VerifyKReachable(etg, c.h.Network, p.K)
	case PrimaryPath:
		// Route selection is ACL-blind, so the tcETG alone cannot decide
		// which path traffic takes.
		return arc.VerifyPrimaryPath(etg, harc.BuildRoutingETGFromState(c.h, c.st, p.TC), p.Path)
	case Isolated:
		// The classes share an edge iff their rows intersect (§5.1).
		return !etg.G.Live().Intersects(harc.BuildTCETGFromState(c.h, c.st, p.TC2).G.Live())
	}
	return false
}
