package game_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/graph"
	"gncg/internal/metric"
	"gncg/internal/rules"
)

// fuzzFlavors are the host flavors FuzzScanTiers draws from: the shared
// corpus, the remaining point norms, a tree with zero-weight edges, and
// two near-tie flavors whose weights sit a few ulps apart.
var fuzzFlavors = append(append([]string(nil), game.CorpusFlavors...),
	"points-l1", "points-linf", "tree-zero-w", "ulp-matrix", "ulp-points")

// ulpNudge moves x by k ulps (either direction) with math.Nextafter.
func ulpNudge(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// fuzzHost builds one n-point host of the named flavor from rng.
//
// The near-tie flavors aim at the pruning slack: "ulp-matrix" draws
// every weight from {1, 2, 3} nudged by up to three ulps, so direct
// edges and two-hop paths (1+2 against 3) tie to within float rounding;
// "ulp-points" puts ℓ2 points on a small integer grid nudged the same
// way, so the geometric tiers see the same near ties through their
// candidate sources.
func fuzzHost(t *testing.T, rng *rand.Rand, n int, flavor string) *game.Host {
	t.Helper()
	seed := rng.Int63()
	switch flavor {
	case "points-l1":
		return game.NewHost(gen.Points(seed, n, 2, 10, 1))
	case "points-linf":
		return game.NewHost(gen.Points(seed, n, 3, 10, math.Inf(1)))
	case "tree-zero-w":
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			w := rng.Float64() * 4
			if rng.Intn(3) == 0 {
				w = 0
			}
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: w})
		}
		tm, err := metric.NewTreeMetric(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return game.NewHost(tm)
	case "ulp-matrix":
		w := make([][]float64, n)
		for u := range w {
			w[u] = make([]float64, n)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				x := ulpNudge(float64(1+rng.Intn(3)), rng.Intn(7)-3)
				w[u][v], w[v][u] = x, x
			}
		}
		h, err := game.HostFromMatrix(w)
		if err != nil {
			t.Fatal(err)
		}
		return h
	case "ulp-points":
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{
				ulpNudge(float64(rng.Intn(4)), rng.Intn(7)-3),
				ulpNudge(float64(rng.Intn(4)), rng.Intn(7)-3),
			}
		}
		sp, err := metric.NewPoints(pts, 2)
		if err != nil {
			t.Fatal(err)
		}
		return game.NewHost(sp)
	default:
		return game.CorpusHost(t, rng, n, flavor)
	}
}

// FuzzScanTiers checks tier soundness on small random games: for every
// agent, BestSingleMove with candidate generation on, with it off, and
// the exhaustive BestSingleMoveExact return the same (move, cost, ok)
// triple; a gain certificate that rules out acquisitions is never
// contradicted by an improving buy or swap; and the parallel verifier's
// verdict equals a serial sweep of the exact oracle.
//
// The inputs pick the host flavor, size, cost model, α (log-uniform
// over [1/16, 4096)), profile density and whether a random demand
// matrix — zero-demand pairs included — replaces uniform traffic.
func FuzzScanTiers(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(0), uint16(0x0480), uint8(20), false)
	f.Fuzz(func(t *testing.T, seed int64, size, flavor, model uint8, alpha uint16, density uint8, traffic bool) {
		defer game.SetCandidateGeneration(true)
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%12
		names := rules.Names()
		r := rules.MustByName(names[int(model)%len(names)])
		fl := fuzzFlavors[int(flavor)%len(fuzzFlavors)]
		a := math.Ldexp(1+float64(alpha&0xff)/256, int(alpha>>8)%16-4)
		g := game.NewWithRules(fuzzHost(t, rng, n, fl), a, r)
		if traffic {
			tr := make([][]float64, n)
			for u := range tr {
				tr[u] = make([]float64, n)
				for v := range tr[u] {
					if v != u && rng.Intn(3) > 0 {
						tr[u][v] = rng.Float64() * 2
					}
				}
			}
			if err := g.SetTraffic(tr); err != nil {
				t.Fatal(err)
			}
		}
		prof := game.RandProfile(rng, n, float64(density%64)/100)
		ctx := func(u int) string {
			return fmt.Sprintf("%s/%s/n=%d/alpha=%v agent %d", fl, r.Name(), n, a, u)
		}

		geo, off, exact := game.NewState(g, prof.Clone()), game.NewState(g, prof.Clone()), game.NewState(g, prof.Clone())
		firstImproving := -1
		for u := 0; u < n; u++ {
			game.SetCandidateGeneration(true)
			gm, gc, gok := geo.BestSingleMove(u)
			game.SetCandidateGeneration(false)
			om, oc, ook := off.BestSingleMove(u)
			em, ec, eok := exact.BestSingleMoveExact(u)
			if gm != em || gc != ec || gok != eok {
				t.Fatalf("%s: candidates on (%v, %v, %v) != exact (%v, %v, %v)", ctx(u), gm, gc, gok, em, ec, eok)
			}
			if om != em || oc != ec || ook != eok {
				t.Fatalf("%s: candidates off (%v, %v, %v) != exact (%v, %v, %v)", ctx(u), om, oc, ook, em, ec, eok)
			}
			if eok && firstImproving < 0 {
				firstImproving = u
			}
			if cert, ok := exact.AcquireGainCertificate(u); ok && cert.RulesOutAcquisitions(g.Eps) {
				cur := exact.Cost(u)
				for _, m := range exact.CandidateMoves(u) {
					if m.Kind != game.Delete && g.Improves(exact.CostAfter(m), cur) {
						t.Fatalf("%s: certificate %+v ruled out acquisitions, but %v improves %v -> %v",
							ctx(u), cert, m, cur, exact.CostAfter(m))
					}
				}
			}
		}
		// The verifier reads the warmed geo state in parallel and a cold
		// copy through the exact oracle; both must match the serial sweep.
		game.SetCandidateGeneration(true)
		for _, c := range []struct {
			s   *game.State
			opt game.VerifyOptions
		}{{geo, game.VerifyOptions{Workers: 2}}, {game.NewState(g, prof.Clone()), game.VerifyOptions{Workers: 1, Exact: true}}} {
			res := game.VerifyGreedyEquilibrium(c.s, c.opt)
			if res.Stable != (firstImproving < 0) || res.FirstImproving != firstImproving {
				t.Fatalf("%s/%s/alpha=%v: verifier %+v (options %+v), serial exact sweep first improving agent %d",
					fl, r.Name(), a, res, c.opt, firstImproving)
			}
		}
	})
}
