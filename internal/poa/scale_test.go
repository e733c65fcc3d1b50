package poa

import (
	"runtime"
	"testing"

	"gncg/internal/constructions"
)

// TestLowerBoundFamilyLazyAtScale pins the scale path cmd/poa takes for
// `-family thm15 -sizes 5000`: the construction must stay lazy — O(n)
// bytes for the tree host, never a densified O(n²) matrix — and the
// sweep row beyond greedyVerifyLimit must measure the ratio at TierNone
// instead of launching the quadratic stability check.
func TestLowerBoundFamilyLazyAtScale(t *testing.T) {
	const n = 5000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lb5k, err := constructions.Thm15Star(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = lb5k.Game.Host.Weight(17, 4242)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(lb5k)
	// Lazy construction is a few O(n) slices (tree adjacency, LCA tables,
	// edge list) — well under a megabyte. Densifying the host at n = 5000
	// would allocate 8·n² = 200 MB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Thm15Star(%d) allocated %d bytes; quadratic dense-host path suspected", n, grew)
	}

	lb, err := constructions.Thm15Star(2500, 4)
	if err != nil {
		t.Fatal(err)
	}
	row := VerifyLowerBoundWorkers(lb, 2500, 1)
	if row.Tier != TierNone {
		t.Fatalf("n=2500 row verified at tier %v; want TierNone beyond greedyVerifyLimit", row.Tier)
	}
	if row.Stable {
		t.Fatal("unchecked row reported stable")
	}
	if row.Ratio <= 1 || row.Predicted <= 1 {
		t.Fatalf("implausible measured ratio %v (predicted %v)", row.Ratio, row.Predicted)
	}
	measured := MeasureLowerBound(lb, 2500)
	if measured.Ratio != row.Ratio || measured.Tier != TierNone {
		t.Fatalf("MeasureLowerBound row %+v differs from verify path %+v", measured, row)
	}
}
