package harc

import (
	"sync"
	"sync/atomic"
)

// Verdicts is a HARC's record of the verdicts its own state has given. The
// HARC's rows are never written after build, so a check on them is a pure
// function of the HARC and the policy: computed once, it answers every
// later asker — the repair's per-destination sweep after a Verify, a
// session's repeated verifies. A check on any other state never reads or
// writes it.
//
// Each traffic-class row keeps one word: two two-state flags (0 unknown,
// 1 holds, 2 fails) for the checks that are a yes or no per class, and for
// K-reachability the largest K known to hold and the smallest K known to
// fail (0: none). K-reachability is monotone in K — it holds iff K
// link-disjoint paths exist — so one K known to hold answers every smaller
// one, and one known to fail every larger one. Lookups allocate nothing,
// and any number of goroutines may read and fill the record at once.
type Verdicts struct {
	once sync.Once
	rows []atomic.Uint64 // by traffic-class row
}

// The boolean checks a Verdicts keeps per class, as Flag indexes.
const (
	VerdictBlocked  = 0 // SRC cannot reach DST in the class's tcETG
	VerdictWaypoint = 1 // every SRC→DST path of the tcETG crosses a waypoint
)

const (
	flagBits  = 2
	kShift    = 2 * flagBits
	kBits     = 28
	kMask     = 1<<kBits - 1
	failShift = kShift + kBits
)

// Verdicts returns the HARC's record of verdicts on its own state.
func (h *HARC) Verdicts() *Verdicts {
	v := h.verdicts
	v.once.Do(func() { v.rows = make([]atomic.Uint64, len(h.TCs)) })
	return v
}

// Flag returns the recorded verdict of boolean check i on class row r.
func (v *Verdicts) Flag(r, i int) (holds, known bool) {
	switch v.rows[r].Load() >> (i * flagBits) & 3 {
	case 1:
		return true, true
	case 2:
		return false, true
	}
	return false, false
}

// SetFlag records the verdict of boolean check i on class row r.
func (v *Verdicts) SetFlag(r, i int, holds bool) {
	bit := uint64(2)
	if holds {
		bit = 1
	}
	v.update(r, func(w uint64) uint64 { return w | bit<<(i*flagBits) })
}

// AtLeast returns the recorded verdict of the check "at least k" on class
// row r, a check monotone in k.
func (v *Verdicts) AtLeast(r, k int) (holds, known bool) {
	w := v.rows[r].Load()
	hold, fail := int(w>>kShift&kMask), int(w>>failShift&kMask)
	switch {
	case k <= hold:
		return true, true
	case fail > 0 && k >= fail:
		return false, true
	}
	return false, false
}

// SetAtLeast records the verdict of the check "at least k" on class row r.
// A k below 1 (which always holds) or beyond 28 bits is not recorded.
func (v *Verdicts) SetAtLeast(r, k int, holds bool) {
	if k < 1 || k > kMask {
		return
	}
	v.update(r, func(w uint64) uint64 {
		hold, fail := int(w>>kShift&kMask), int(w>>failShift&kMask)
		if holds && k > hold {
			w = w&^(kMask<<kShift) | uint64(k)<<kShift
		}
		if !holds && (fail == 0 || k < fail) {
			w = w&^(kMask<<failShift) | uint64(k)<<failShift
		}
		return w
	})
}

// SetFlow records the verdicts of "at least k" on class row r that one
// flow value settles: flow is min(limit, the quantity), so every k up to
// it holds and, when it is below limit, every larger k fails.
func (v *Verdicts) SetFlow(r, flow, limit int) {
	if flow >= 1 {
		v.SetAtLeast(r, flow, true)
	}
	if flow < limit {
		v.SetAtLeast(r, flow+1, false)
	}
}

// update applies f to row r's word atomically.
func (v *Verdicts) update(r int, f func(uint64) uint64) {
	for {
		old := v.rows[r].Load()
		if v.rows[r].CompareAndSwap(old, f(old)) {
			return
		}
	}
}
