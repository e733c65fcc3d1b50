package metric

// CandidateSource is the geometric-neighborhood capability: a space that
// can enumerate every point within a given distance of a point without a
// linear scan over all pairs. It is what lets the game engine's
// best-response scan visit only the candidates its gain bounds cannot
// already rule out (game.BestSingleMove queries the capability through
// the host), turning the O(n) candidate sweep into an output-sensitive
// one on point and tree hosts.
//
// The contract is exact, not approximate: AppendWithin must append the
// index of every point v with Dist(u,v) <= r — u itself included, at
// distance 0 — in ascending index order, and nothing else; the result is
// bit-equal to a brute-force scan of Dist against the same threshold.
// Implementations whose internal pruning is subject to float rounding
// must slacken the pruning, never the membership check. Sources must be
// safe for concurrent queries (the engine's verifier workers share one
// state and so one space).
type CandidateSource interface {
	AppendWithin(u int, r float64, buf []int) []int

	// NearestOtherDist returns the distance from u to its nearest other
	// point (+Inf when the space has only one point). The engine uses it
	// as a floor on the cheapest acquisition price an agent could pay,
	// which strengthens the excess certificate: a sublinear query (kd
	// k-nearest on point spaces, a min-incident-edge lookup on trees)
	// instead of a linear sweep. The value must never undercut-proof the
	// certificate: it may exceed min over v != u of Dist(u, v) only by
	// float-rounding slop of the same order as Dist's own evaluation
	// noise (the engine's certified slack absorbs that); duplicate
	// points legitimately return 0.
	NearestOtherDist(u int) float64
}
