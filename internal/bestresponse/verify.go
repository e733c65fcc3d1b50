// Nash-tier concurrent verification. The exact tier shards one exact
// best-response computation per agent across a bounded worker pool —
// each check is read-only against the frozen state (BuildInstance goes
// through the state's concurrent-read-safe distance cache), so every
// worker reads the caller's state directly. The greedy tier
// (game.VerifyGreedyEquilibrium) shares it the same way, adding only
// per-worker evaluation scratch for its speculative scans.
//
// The greedy tier's gain-bound certificates do NOT transfer here: a
// GainCertificate bounds single-edge moves, while a Nash deviation may
// buy any subset of edges at once, and per-edge gain bounds do not add
// up soundly across a set (one acquired edge changes the distances the
// next edge's bound was computed from). Every agent therefore pays for
// a real best-response computation at this tier — which is why it is
// reserved for small n (poa.VerifyLowerBoundWorkers's exactNashLimit).
//
// The tier is additionally model-gated: its best responses come from
// the UMFL reduction, which prices each acquired edge independently.
// Cost models whose multi-edge deviations are NOT a sum of per-edge
// terms — the budget model, where the cap couples the purchased set —
// would make this tier unsound (UMFL could open a facility set no
// feasible strategy matches, or miss the binding constraint entirely),
// so VerifyNashWorkers rejects models that declare ExactNashViaUMFL
// false instead of silently assuming sum-distance pricing. Callers
// needing an exact Nash check under such models must enumerate:
// BruteForce per agent at small n is the only sound path.
package bestresponse

import (
	"gncg/internal/game"
	"gncg/internal/parallel"
)

// NashReport is the result of a concurrent exact Nash verification.
type NashReport struct {
	// Nash is true when no agent has any strictly improving strategy.
	Nash bool
	// FirstDeviator is the smallest agent index with an improving exact
	// best response, or -1 when Nash. Identical for every worker count.
	FirstDeviator int
	// Workers is the worker count actually used.
	Workers int
}

// VerifyNashWorkers checks the exact Nash property with an explicit
// verification worker bound (<= 0 means parallel.Workers()). Every
// agent's exact best response is computed regardless of other agents'
// outcomes — no early cancel — and verdicts fold in fixed agent order,
// so the report is identical under any worker count.
//
// The check is only sound for cost models whose best responses the
// UMFL reduction computes exactly (Rules.ExactNashViaUMFL); other
// models are rejected with a panic — see the package comment on why
// multi-edge deviations break per-edge pricing — rather than returning
// a verdict the model's deviations could contradict.
func VerifyNashWorkers(s *game.State, workers int) NashReport {
	if r := s.G.Rules(); !r.ExactNashViaUMFL() {
		panic("bestresponse: exact-Nash verification is unsound under cost model " + r.Name() +
			": multi-edge deviations are not per-edge separable, so the UMFL tier cannot bound them")
	}
	n := s.G.N()
	if workers <= 0 {
		workers = parallel.Workers()
	}
	improving := make([]bool, n)
	parallel.ForWorkers(n, workers, func(u int) {
		cur := s.Cost(u)
		br := Exact(s, u)
		improving[u] = s.G.Improves(br.Cost, cur)
	})
	rep := NashReport{Nash: true, FirstDeviator: -1, Workers: workers}
	for u, imp := range improving {
		if imp {
			rep.Nash = false
			rep.FirstDeviator = u
			break
		}
	}
	return rep
}
