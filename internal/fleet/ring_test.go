package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Session keys are sha256 hex strings; hex-ish synthetic keys are
		// representative enough for distribution tests.
		keys[i] = fmt.Sprintf("session-%06d", i)
	}
	return keys
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := NewRing([]string{"r1", "r2", "r3"})
	b := NewRing([]string{"r3", "r1", "r2", "r1"})
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("members differ: %v vs %v", a.Members(), b.Members())
	}
	for _, key := range ringKeys(500) {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs across construction orders: %q vs %q", key, a.Owner(key), b.Owner(key))
		}
		if !reflect.DeepEqual(a.Candidates(key, 0), b.Candidates(key, 0)) {
			t.Fatalf("candidates of %q differ across construction orders", key)
		}
	}
}

func TestRingCandidatesDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3", "r4"})
	for _, key := range ringKeys(200) {
		cands := r.Candidates(key, 0)
		if len(cands) != 4 {
			t.Fatalf("candidates(%q) = %v, want all 4 members", key, cands)
		}
		if cands[0] != r.Owner(key) {
			t.Fatalf("candidates(%q)[0] = %q, owner = %q", key, cands[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("candidates(%q) repeats %q", key, c)
			}
			seen[c] = true
		}
		if got := r.Candidates(key, 2); len(got) != 2 || got[0] != cands[0] || got[1] != cands[1] {
			t.Fatalf("candidates(%q, 2) = %v, want prefix of %v", key, got, cands)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3"})
	const n = 30000
	counts := map[string]int{}
	for _, key := range ringKeys(n) {
		counts[r.Owner(key)]++
	}
	want := n / 3
	for m, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("replica %s owns %d of %d keys, want within [%d, %d]", m, c, n, want/2, want*2)
		}
	}
}

// TestRingKeyMovementBounded pins the property the rebalance design
// depends on: scaling 3→4 replicas moves roughly 1/4 of the keys
// (bounded here at <2× the ideal minimum), where naive mod-N hashing
// reshuffles ~3/4 of them.
func TestRingKeyMovementBounded(t *testing.T) {
	before := NewRing([]string{"r1", "r2", "r3"})
	after := NewRing([]string{"r1", "r2", "r3", "r4"})
	const n = 30000
	keys := ringKeys(n)

	moved := 0
	for _, key := range keys {
		if before.Owner(key) != after.Owner(key) {
			moved++
		}
	}
	// Ideal movement on 3→4 is n/4 (only keys the new replica takes).
	ideal := n / 4
	if moved >= 2*ideal {
		t.Errorf("ring moved %d of %d keys on 3→4, want < 2×ideal (%d)", moved, n, 2*ideal)
	}

	// Naive mod-N for comparison: hash % 3 vs hash % 4.
	modMoved := 0
	for _, key := range keys {
		h := hash64(key)
		if h%3 != h%4 {
			modMoved++
		}
	}
	if moved >= modMoved {
		t.Errorf("ring movement (%d) not better than mod-N movement (%d)", moved, modMoved)
	}
	t.Logf("3→4 key movement: ring %d (%.1f%%), mod-N %d (%.1f%%), ideal %d (25%%)",
		moved, 100*float64(moved)/n, modMoved, 100*float64(modMoved)/n, ideal)
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if empty.Owner("k") != "" || empty.Candidates("k", 0) != nil {
		t.Error("empty ring should own nothing")
	}
	one := NewRing([]string{"solo"})
	if one.Owner("k") != "solo" {
		t.Errorf("single-member ring owner = %q", one.Owner("k"))
	}
	if got := one.Candidates("k", 5); len(got) != 1 || got[0] != "solo" {
		t.Errorf("single-member candidates = %v", got)
	}
}
