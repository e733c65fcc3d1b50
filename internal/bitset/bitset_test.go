package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(129)
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	for _, e := range []int{0, 63, 64, 129} {
		if !s.Has(e) {
			t.Errorf("Has(%d) = false, want true", e)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Error("unexpected membership")
	}
	s.Remove(63)
	if s.Has(63) {
		t.Error("Remove(63) did not remove")
	}
	if got, want := s.Elems(), []int{0, 64, 129}; len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Elems = %v, want %v", got, want)
			}
		}
	}
}

// fromSlice returns a set over {0,...,n-1} containing exactly the listed
// elements.
func fromSlice(n int, elems []int) Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func TestHasOutOfRange(t *testing.T) {
	s := New(10)
	if s.Has(-1) || s.Has(10) || s.Has(1000) {
		t.Error("Has out of range must be false")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add out of range did not panic")
		}
	}()
	New(4).Add(4)
}

func TestCloneIndependence(t *testing.T) {
	s := fromSlice(20, []int{1, 2, 3})
	c := s.Clone()
	c.Add(10)
	if s.Has(10) {
		t.Error("Clone shares storage with original")
	}
	s.Remove(1)
	if !c.Has(1) {
		t.Error("original mutation leaked into clone")
	}
}

func TestEqualAndHash(t *testing.T) {
	a := fromSlice(100, []int{5, 50, 99})
	b := fromSlice(100, []int{5, 50, 99})
	c := fromSlice(100, []int{5, 50})
	if !a.Equal(b) {
		t.Error("equal sets not Equal")
	}
	if a.Equal(c) {
		t.Error("unequal sets Equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal sets hash differently")
	}
	if a.Equal(fromSlice(101, []int{5, 50, 99})) {
		t.Error("sets over different universes must not be Equal")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := fromSlice(64, []int{1, 2, 3})
	b := fromSlice(64, []int{3, 4})
	u := a.Clone()
	u.Union(b)
	if u.Count() != 4 {
		t.Errorf("union count = %d, want 4", u.Count())
	}
	if a.Count() != 3 || b.Count() != 2 {
		t.Error("union mutated its argument or was applied to the wrong set")
	}
	defer func() {
		if recover() == nil {
			t.Error("universe mismatch did not panic")
		}
	}()
	u.Union(New(65))
}

// TestQuickAgainstMapModel drives random operation sequences against a
// map-based reference implementation.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		s := New(n)
		ref := map[int]bool{}
		for op := 0; op < 300; op++ {
			e := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(e)
				ref[e] = true
			case 1:
				s.Remove(e)
				delete(ref, e)
			case 2:
				if s.Has(e) != ref[e] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, e := range s.Elems() {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForEachOrder(t *testing.T) {
	s := fromSlice(300, []int{7, 3, 250, 64, 65})
	prev := -1
	s.ForEach(func(e int) {
		if e <= prev {
			t.Fatalf("ForEach out of order: %d after %d", e, prev)
		}
		prev = e
	})
}

func TestForEachSymDiff(t *testing.T) {
	s := fromSlice(300, []int{1, 3, 64, 250})
	u := fromSlice(300, []int{3, 65, 250, 299})
	var got []int
	prev := -1
	s.ForEachSymDiff(u, func(e int) {
		if e <= prev {
			t.Fatalf("ForEachSymDiff out of order: %d after %d", e, prev)
		}
		prev = e
		got = append(got, e)
	})
	want := []int{1, 64, 65, 299}
	if len(got) != len(want) {
		t.Fatalf("symdiff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("symdiff = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("universe mismatch did not panic")
		}
	}()
	s.ForEachSymDiff(New(5), func(int) {})
}
