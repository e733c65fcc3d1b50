package game

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// serialOracleVerify is the reference the parallel verifier is pinned
// against: an in-order exhaustive scan of every agent with the unpruned
// exact oracle.
func serialOracleVerify(s *State) (stable bool, firstImproving int) {
	stable, firstImproving = true, -1
	for u := 0; u < s.G.N(); u++ {
		if _, _, improving := s.BestSingleMoveExact(u); improving {
			return false, u
		}
	}
	return stable, firstImproving
}

// settle plays greedy round-robin dynamics in place for at most
// maxRounds full rounds, producing the near-equilibrium states where
// certificates actually fire (a dynamics.RunToConvergence stand-in that
// avoids the import cycle of in-package tests).
func settle(s *State, maxRounds int) {
	n := s.G.N()
	for r := 0; r < maxRounds; r++ {
		moved := false
		for u := 0; u < n; u++ {
			if m, _, ok := s.BestSingleMove(u); ok {
				s.Apply(m)
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// TestVerifyParallelMatchesSerialOracle pins the sharding contract: for
// every host flavor, for random and settled states alike, the parallel
// verifier's verdict (Stable, FirstImproving) is bit-identical to the
// serial exhaustive oracle under worker counts {1, 4, GOMAXPROCS} and
// both scan oracles — and the certificate skip count is identical for every worker count. Run under
// -race in CI, this also checks that the workers' shared reads of one
// state are race-free.
func TestVerifyParallelMatchesSerialOracle(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, flavor := range repairFlavors {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(6)
			g := New(repairHost(t, rng, n, flavor), 0.5+4*rng.Float64())
			s := NewState(g, randProfile(rng, n, 0.3))
			if seed%2 == 1 {
				settle(s, 8) // near-equilibrium: the certificate-rich regime
			}
			wantStable, wantFirst := serialOracleVerify(s.Clone())
			var wantSkipped = -1
			for _, workers := range workerCounts {
				for _, exact := range []bool{false, true} {
					res := VerifyGreedyEquilibrium(s, VerifyOptions{Workers: workers, Exact: exact})
					if res.Stable != wantStable || res.FirstImproving != wantFirst {
						t.Fatalf("%s seed %d workers=%d exact=%v: got (stable=%v first=%d), oracle (stable=%v first=%d)",
							flavor, seed, workers, exact,
							res.Stable, res.FirstImproving, wantStable, wantFirst)
					}
					if wantSkipped == -1 {
						wantSkipped = res.CertSkipped
					} else if res.CertSkipped != wantSkipped {
						t.Fatalf("%s seed %d workers=%d exact=%v: CertSkipped=%d, want %d (must be worker-invariant)",
							flavor, seed, workers, exact, res.CertSkipped, wantSkipped)
					}
					if res.CertSkipped+res.Scanned != n {
						t.Fatalf("%s seed %d: CertSkipped=%d + Scanned=%d != n=%d",
							flavor, seed, res.CertSkipped, res.Scanned, n)
					}
				}
			}
		}
	}
}

// TestVerifyIsReadOnly: the concurrent entry point must leave the state
// untouched — same profile, same network, same costs.
func TestVerifyIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 10
	g := New(repairHost(t, rng, n, "l2points"), 2)
	s := NewState(g, randProfile(rng, n, 0.3))
	before := s.P.Clone()
	costBefore := s.SocialCost()
	VerifyGreedyEquilibrium(s, VerifyOptions{Workers: 4})
	for u := 0; u < n; u++ {
		if !s.P.S[u].Equal(before.S[u]) {
			t.Fatalf("agent %d strategy mutated by verification", u)
		}
	}
	if got := s.SocialCost(); got != costBefore {
		t.Fatalf("social cost changed: %v -> %v", costBefore, got)
	}
}

// TestCertificateSoundness: whenever a certificate rules out
// acquisitions, exhaustive evaluation of every buy and swap must agree
// that none improves — across the corpus, on random (not settled)
// states where bounds are stressed hardest.
func TestCertificateSoundness(t *testing.T) {
	for _, flavor := range repairFlavors {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			n := 6 + rng.Intn(5)
			g := New(repairHost(t, rng, n, flavor), 0.5+6*rng.Float64())
			s := NewState(g, randProfile(rng, n, 0.4))
			for u := 0; u < n; u++ {
				cur := s.Cost(u)
				cert, ok := s.AcquireGainCertificate(u)
				if !ok || !cert.RulesOutAcquisitions(g.Eps) {
					continue
				}
				for _, m := range s.CandidateMoves(u) {
					if m.Kind == Delete {
						continue
					}
					if after := s.CostAfter(m); g.Improves(after, cur) {
						t.Fatalf("%s seed %d: certificate for agent %d ruled out acquisitions, but %v improves %v -> %v (bound %v + refund %v, slack %v)",
							flavor, seed, u, m, cur, after, cert.AcquireBound, cert.MaxRefund, cert.Slack)
					}
				}
			}
		}
	}
}

// TestVerifyCertSkipsAtScaleEquilibrium reproduces the ladder's
// certify-tier shape in miniature — an ℓ2 star at α = 16n settled to a
// greedy equilibrium — and requires the certificates to actually skip
// agents there: the regime the cert_skipped column measures.
func TestVerifyCertSkipsAtScaleEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 40
	g := New(randCacheHost(rng, n), 16*float64(n))
	s := NewState(g, StarProfile(n, 0))
	settle(s, 16)
	res := VerifyGreedyEquilibrium(s, VerifyOptions{Workers: 4, Exact: true})
	if !res.Stable {
		t.Fatalf("settled star state not verified stable (first improving %d)", res.FirstImproving)
	}
	if res.CertSkipped == 0 {
		t.Fatalf("expected certificate skips at a large-alpha equilibrium, got 0 of %d agents", n)
	}
	t.Logf("cert skipped %d / %d agents", res.CertSkipped, n)
}

// warmL2Star is the shared-state verifier's fixture: an n-point ℓ2 star
// at α = 16n, the l2_star_xl benchmark's shape, with every distance row
// cached and current, as dynamics leave a converged state.
func warmL2Star(n int) *State {
	rng := rand.New(rand.NewSource(13))
	s := NewState(New(randCacheHost(rng, n), 16*float64(n)), StarProfile(n, 0))
	s.SocialCost()
	return s
}

// TestVerifySharesCallerState: verification workers read through the
// caller's own distance cache instead of private copies. On warm states
// every worker count returns the same result, runs no Dijkstra (Misses
// unchanged) while its reads show up as hits on the caller's counters,
// and leaves the cache, the profile and the network untouched.
func TestVerifySharesCallerState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	corpus := NewState(New(repairHost(t, rng, n, "tree"), 2), randProfile(rng, n, 0.1))
	corpus.SocialCost()
	for name, s := range map[string]*State{"l2star2000": warmL2Star(2000), "tree40": corpus} {
		view, edges, prof := s.CacheView(), s.Network().Edges(), s.P.Clone()
		var want VerifyResult
		for _, workers := range []int{1, 2, 4} {
			before := s.CacheStats()
			res := VerifyGreedyEquilibrium(s, VerifyOptions{Workers: workers})
			after := s.CacheStats()
			res.Workers = 0 // the one field that reports the worker count
			if workers == 1 {
				want = res
			} else if res != want {
				t.Fatalf("%s workers=%d: %+v, want %+v", name, workers, res, want)
			}
			if after.Misses != before.Misses {
				t.Fatalf("%s workers=%d: %d cache misses on a warm state", name, workers, after.Misses-before.Misses)
			}
			if after.Hits <= before.Hits {
				t.Fatalf("%s workers=%d: verification read no row through the caller's cache (hits %d -> %d)",
					name, workers, before.Hits, after.Hits)
			}
		}
		if !reflect.DeepEqual(s.CacheView(), view) {
			t.Fatalf("%s: verification changed the distance cache", name)
		}
		if !reflect.DeepEqual(s.Network().Edges(), edges) {
			t.Fatalf("%s: verification changed the network", name)
		}
		for u := 0; u < s.G.N(); u++ {
			if !s.P.S[u].Equal(prof.S[u]) {
				t.Fatalf("%s: verification changed agent %d's strategy", name, u)
			}
		}
	}
}

// TestVerifyWorkerMemoryBound pins the verifier's footprint: extra
// workers cost scratch, not state copies. Going from 1 to 4 workers on
// the warm n = 2000 star must allocate less than one profile copy
// (n²/8 bytes).
func TestVerifyWorkerMemoryBound(t *testing.T) {
	n := 2000
	s := warmL2Star(n)
	allocated := func(workers int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		VerifyGreedyEquilibrium(s, VerifyOptions{Workers: workers})
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	allocated(1) // settle any one-time lazy state
	one, four := allocated(1), allocated(4)
	if bound := int64(n) * int64(n) / 8; four-one >= bound {
		t.Fatalf("4 workers allocated %d bytes more than 1 worker (%d vs %d), bound %d (one profile copy)",
			four-one, four, one, bound)
	}
	t.Logf("allocated: 1 worker %d bytes, 4 workers %d bytes", one, four)
}
