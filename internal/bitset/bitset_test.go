package bitset

import (
	"math/rand"
	"reflect"
	"testing"
)

func ids(s Set) []int {
	var out []int
	s.Each(func(i int) { out = append(out, i) })
	return out
}

func TestSetBasics(t *testing.T) {
	s := New(130)
	if len(s) != 3 {
		t.Fatalf("New(130) has %d words, want 3", len(s))
	}
	for _, i := range []int{0, 63, 64, 129} {
		s.Put(i, true)
	}
	if got := ids(s); !reflect.DeepEqual(got, []int{0, 63, 64, 129}) {
		t.Fatalf("Each = %v", got)
	}
	if s.Count() != 4 || !s.Has(63) || s.Has(62) {
		t.Fatalf("Count/Has wrong: %d %v %v", s.Count(), s.Has(63), s.Has(62))
	}
	// Out-of-range and nil rows read as absent.
	if s.Has(-1) || s.Has(192) || Set(nil).Has(0) {
		t.Fatal("out-of-range id reads as present")
	}
	c := s.Clone()
	c.Put(64, false)
	if !s.Has(64) || c.Has(64) || s.Equal(c) || !s.Equal(s.Clone()) {
		t.Fatal("Clone shares storage or Equal is wrong")
	}
	if Set(nil).Equal(s) || !Set(nil).Equal(New(0)) {
		t.Fatal("Equal must compare capacity")
	}
}

// TestDiffWalksMatchBitwiseScan pins the word-level walks to a bit by bit
// scan.
func TestDiffWalksMatchBitwiseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) Set {
		s := New(n)
		for i := 0; i < n; i++ {
			s.Put(i, rng.Intn(3) == 0)
		}
		return s
	}
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(200)
		a, b := random(n), random(n)
		var want1, got1 []int
		intersects := false
		for i := 0; i < n; i++ {
			if a.Has(i) != b.Has(i) {
				want1 = append(want1, i)
			}
			intersects = intersects || (a.Has(i) && b.Has(i))
		}
		EachDiff(a, b, func(i int) { got1 = append(got1, i) })
		if !reflect.DeepEqual(got1, want1) {
			t.Fatalf("round %d: EachDiff %v want %v", round, got1, want1)
		}
		if a.Intersects(b) != intersects {
			t.Fatalf("round %d: Intersects = %v, want %v", round, a.Intersects(b), intersects)
		}
		u := a.Clone()
		u.Or(b)
		for i := 0; i < n; i++ {
			if u.Has(i) != (a.Has(i) || b.Has(i)) {
				t.Fatalf("round %d: Or wrong at %d", round, i)
			}
		}
	}
}
