package game

// Incremental distance-sum aggregates: every cached distance row carries
// Σ_v t(u,v)·d(u,v) — the whole of DistCost(u) — maintained alongside the
// row, so repeated cost queries against an unchanged network are O(1) and
// a move's read-only evaluation (CostAfter) refolds only the blocks its
// repair touched over the cached block sums, not an O(n) re-summation.
//
// Bit-equality with recomputation is a hard requirement (the sweep
// engine's byte-identical results contract reaches through every cost
// query), and a plain running float sum cannot provide it: float addition
// is not associative, so subtract-old/add-new maintenance drifts by ulps.
// The aggregate instead fixes the summation tree's shape: the row is cut
// into fixed-width blocks, each block folds left-to-right into a partial
// sum, and the partial sums fold left-to-right into the total. Repair
// maintenance recomputes exactly the dirty blocks (the blocks containing
// touched entries) and refolds the block sums — identical values to a
// from-scratch fold because every kept block sum was itself a fold of
// unchanged entries. The from-scratch fold (foldDistCost) uses the same
// shape, so cached, incrementally-maintained and freshly-recomputed costs
// are all bit-identical, which the property tests pin across the host
// corpus.
//
// The shape also keeps the old left-to-right semantics on small
// instances: for n ≤ aggBlock there is a single block and the fold is
// exactly the plain ordered sum the engine always computed.
//
// +Inf distances (disconnected pairs with demand) propagate through the
// folds to a +Inf total, matching the exact semantics; zero-demand pairs
// contribute an exact 0 so a +Inf distance they tolerate never poisons
// the sum (0·Inf is NaN — distTerm guards it).

// aggBlock is the fixed fold-block width. It is a constant — never a
// function of n or of the machine — because the fold shape is part of
// the numeric contract.
const aggBlock = 64

// rowAgg is the maintained aggregate of one cached row.
type rowAgg struct {
	blocks []float64 // fixed-shape per-block partial sums
	total  float64   // left-to-right fold of blocks
	epoch  uint64    // cost epoch (SetTraffic count) the terms were computed under
	valid  bool
}

// distTerm is the contribution of pair (u,v) at distance d: the cost
// model's DistTerm(t(u,v), d), with zero-demand pairs (and the
// diagonal) contributing an exact 0 even at d = +Inf — the guards run
// here so Rules implementations never see the 0·Inf case. Under the
// default SumRules this is exactly t·d.
func (s *State) distTerm(u, v int, d float64) float64 {
	if v == u {
		return 0
	}
	t := s.G.Traffic(u, v)
	if t == 0 {
		return 0
	}
	return s.G.Rules().DistTerm(t, d)
}

// foldBlock folds the terms of row[lo:hi] in index order. Under uniform
// traffic and SumRules every off-diagonal term is 1·d == d, and adding
// the diagonal's exact 0 never changes a sum of non-negative terms, so a
// plain ordered sum that skips the diagonal is bit-identical to the
// general fold — without a Traffic call and an interface DistTerm call
// per entry.
func (s *State) foldBlock(u int, row []float64, lo, hi int) float64 {
	acc := 0.0
	if s.G.uniformSum() {
		for v := lo; v < hi; v++ {
			if v != u {
				acc += row[v]
			}
		}
		return acc
	}
	for v := lo; v < hi; v++ {
		acc += s.distTerm(u, v, row[v])
	}
	return acc
}

// foldDistCost computes Σ_v t(u,v)·d(u,v) over the row with the canonical
// fold shape. This is the from-scratch path (rows read outside the
// cache, aggregate rebuilds); it is bit-identical to any sequence of incremental block
// updates landing on the same row.
func (s *State) foldDistCost(u int, row []float64) float64 {
	total := 0.0
	for lo := 0; lo < len(row); lo += aggBlock {
		hi := min(lo+aggBlock, len(row))
		total += s.foldBlock(u, row, lo, hi)
	}
	return total
}

func foldBlocks(blocks []float64) float64 {
	total := 0.0
	for _, b := range blocks {
		total += b
	}
	return total
}

// buildRowAgg computes row u's aggregate from scratch.
func buildRowAgg(s *State, u int, row []float64) rowAgg {
	nb := (len(row) + aggBlock - 1) / aggBlock
	a := rowAgg{blocks: make([]float64, nb), epoch: s.G.costEpoch, valid: true}
	for b := 0; b < nb; b++ {
		lo := b * aggBlock
		a.blocks[b] = s.foldBlock(u, row, lo, min(lo+aggBlock, len(row)))
	}
	a.total = foldBlocks(a.blocks)
	return a
}

// refold recomputes the flagged blocks of row u's block sums from the
// repaired row (clearing the flags) and returns the refolded total. The
// total is identical to a from-scratch fold because every kept block sum
// was itself a fold of unchanged entries. The flags come from a repair's
// mark hook (markBlock): each touched entry flags its block.
func (s *State) refold(u int, row, blocks []float64, dirty []bool) float64 {
	total := 0.0
	for b := range blocks {
		if dirty[b] {
			dirty[b] = false
			lo := b * aggBlock
			blocks[b] = s.foldBlock(u, row, lo, min(lo+aggBlock, len(row)))
		}
		total += blocks[b]
	}
	return total
}

// markBlock flags entry x's fold block in dirty.
func markBlock(dirty []bool, x int) { dirty[x/aggBlock] = true }

// finishAggUpdate refreshes row i's aggregate after a successful repair
// whose marks flagged c.aggDirty: dirty blocks recompute from the
// repaired row and the block sums refold. An aggregate from a stale cost
// epoch (or a missing one) rebuilds wholesale instead. Caller holds c.mu.
func (c *distCache) finishAggUpdate(s *State, i int, row []float64) {
	a := &c.agg[i]
	if !a.valid || a.epoch != s.G.costEpoch || len(a.blocks) != (len(row)+aggBlock-1)/aggBlock {
		*a = buildRowAgg(s, i, row)
		clear(c.aggDirty)
		return
	}
	a.total = s.refold(i, row, a.blocks, c.aggDirty)
}

// currentAggLocked returns row u's aggregate when the row is cached and
// current, rebuilding it first if the traffic matrix or the cost model
// changed since it was computed; nil otherwise. Caller holds c.mu.
func (c *distCache) currentAggLocked(s *State, u int) *rowAgg {
	if c.rows[u] == nil || c.rowPos[u] != c.head {
		return nil
	}
	a := &c.agg[u]
	if !a.valid || a.epoch != s.G.costEpoch {
		*a = buildRowAgg(s, u, c.rows[u])
	}
	return a
}

// aggTotal returns the maintained Σ t(u,·)·d(u,·) when row u is cached
// and current. countHit guards the stats counter: DistCost probes the
// aggregate again after a row fill, and that second probe answers from
// work the fill already counted.
func (c *distCache) aggTotal(s *State, u int, countHit bool) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.currentAggLocked(s, u)
	if a == nil {
		return 0, false
	}
	if countHit {
		c.stats.Hits++
	}
	return a.total, true
}
