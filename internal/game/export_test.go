package game

import (
	"math/rand"
	"slices"
	"testing"
)

// Test-only hooks for the external test package (package game_test),
// whose tests range over the rules registry and so cannot live inside
// package game without an import cycle.

// CorpusFlavors lists the mixed host corpus of the repair and scan
// properties.
var CorpusFlavors = repairFlavors

// CorpusHost builds one host of the named corpus flavor.
func CorpusHost(t *testing.T, rng *rand.Rand, n int, flavor string) *Host {
	return repairHost(t, rng, n, flavor)
}

// RandProfile has every agent buy each other node with probability p.
var RandProfile = randProfile

// CacheView is the state a read-only evaluation must leave untouched:
// the delta log's positions and length, and every cached row's position
// and contents (nil for uncached rows).
type CacheView struct {
	Head, Base uint64
	LogLen     int
	RowPos     []uint64
	Rows       [][]float64
}

// CacheView copies the state's cache positions and rows.
func (s *State) CacheView() CacheView {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	v := CacheView{Head: c.head, Base: c.base, LogLen: len(c.log), RowPos: slices.Clone(c.rowPos)}
	for _, row := range c.rows {
		v.Rows = append(v.Rows, slices.Clone(row))
	}
	return v
}

// SetRepairBudget swaps the removal-repair budget hook; the returned
// func restores the original. Callers must not run in parallel.
func SetRepairBudget(budget func(n int) int) (restore func()) {
	orig := repairBudget
	repairBudget = budget
	return func() { repairBudget = orig }
}
