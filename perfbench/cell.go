package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"gncg/internal/bitset"
	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/opt"
	"gncg/internal/report"
	"gncg/internal/sweep"
)

// goldenPath is the quick sweep's golden output, relative to the root of
// the checkout the benchmark runs from.
const goldenPath = "cmd/experiments/testdata/golden_quick.json"

// referenceSeed is the host seed of the golden and reference results.
const referenceSeed = 13

// setupRepeats is how many times a cell process builds its host, game
// and initial state; setup_s is the median over all of them.
const setupRepeats = 25

// cellSpec is one equilibrium-cell workload: a host, α and start profile
// from the host seed, greedy round-robin dynamics to convergence, the
// OPT lower bound and certified verification.
type cellSpec struct {
	build  func(hostSeed int64) (*game.Game, game.Profile)
	verify game.VerifyOptions
	// reference is the expected outcome at the reference host seed;
	// goldenSeq instead points at the golden quick-sweep record.
	reference *fingerprint
	goldenSeq int
	hostClass string
}

var cellSpecs = map[string]cellSpec{
	"l2_star_scan": {
		build: func(seed int64) (*game.Game, game.Profile) {
			n := 1000
			return game.New(game.NewHost(gen.Points(seed, n, 2, 1000, 2)), float64(n)), game.StarProfile(n, 0)
		},
		reference: &fingerprint{Outcome: "converged", Rounds: 3, Moves: 2,
			SocialCost: 1.4699407376660166e+09, OptLB: 5.444341262789673e+08},
	},
	"tree_path_rewire": {
		build: func(seed int64) (*game.Game, game.Profile) {
			n := 250
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			return game.New(game.NewHost(gen.Tree(seed, n, 1, 6)), float64(n)), game.PathProfile(n, order)
		},
		verify:    game.VerifyOptions{Exact: true},
		goldenSeq: 94,
		hostClass: "tree",
	},
	"l2_star_xl": {
		build: func(seed int64) (*game.Game, game.Profile) {
			n := 5000
			return game.New(game.NewHost(gen.Points(seed, n, 2, 1000, 2)), 16*float64(n)), game.StarProfile(n, 0)
		},
		reference: &fingerprint{Outcome: "converged", Rounds: 1, Moves: 0,
			SocialCost: 2.188160942155784e+11, OptLB: 1.6748628656314867e+10},
	},
}

// cellReport is what one cell process prints as its last line.
type cellReport struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	SetupS      []float64          `json:"setup_s"`
	LowerBoundS float64            `json:"lower_bound_s"`
	SolveS      float64            `json:"solve_s"`
	VerifyS     float64            `json:"verify_s"`
	CellS       float64            `json:"cell_s"`
	Problems    []string           `json:"problems,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// runCell plays one cell in this process. With traced set it records
// spans around every call into a layer, reads the engine's counters at
// the same boundaries and runs the per-layer probes afterwards.
func runCell(name string, hostSeed, probeSeed int64, traced bool) (cellReport, error) {
	spec, ok := cellSpecs[name]
	if !ok {
		return cellReport{}, fmt.Errorf("unknown cell workload %q", name)
	}
	var tr *tracer
	var mem0 runtime.MemStats
	if traced {
		tr = newTracer()
		runtime.ReadMemStats(&mem0)
	}
	var rep cellReport
	begin := time.Now()

	t := time.Now()
	id := tr.maybeBegin("setup")
	g, start := spec.build(hostSeed)
	s := game.NewState(g, start)
	tr.maybeEnd(id)
	rep.SetupS = append(rep.SetupS, time.Since(t).Seconds())

	t = time.Now()
	id = tr.maybeBegin("opt.lower_bound")
	lb := opt.LowerBound(g)
	tr.maybeEnd(id)
	rep.LowerBoundS = time.Since(t).Seconds()

	n := g.N()
	mover := dynamics.GreedyMover
	if traced {
		mover = tracedGreedyMover(tr)
	}
	scan0, cache0 := s.ScanStats(), s.CacheStats()
	t = time.Now()
	id = tr.maybeBegin("solve")
	res := dynamics.RunToConvergence(s, mover, dynamics.RoundRobin{},
		dynamics.Budget{MaxRounds: 32, MaxMoves: 20 * n})
	tr.maybeEnd(id)
	rep.SolveS = time.Since(t).Seconds()
	scan1, cache1 := s.ScanStats(), s.CacheStats()

	t = time.Now()
	id = tr.maybeBegin("verify")
	v := game.VerifyGreedyEquilibrium(s, spec.verify)
	tr.maybeEnd(id)
	rep.VerifyS = time.Since(t).Seconds()
	rep.CellS = time.Since(begin).Seconds()

	rep.Fingerprint = fingerprint{
		Outcome: res.Outcome.String(), Rounds: res.Rounds, Moves: res.Moves,
		SocialCost: res.SocialCost, OptLB: lb,
		Stable: v.Stable, CertSkipped: v.CertSkipped, Scanned: v.Scanned,
	}
	rep.Problems = checkCell(name, spec, hostSeed, g, rep.Fingerprint, res.PoA(lb))

	if traced {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		rep.Layers = layerMetrics(tr, s, spec, v, &rep, scanDelta(scan0, scan1), cacheDelta(cache0, cache1), mem0, mem1, probeSeed)
		if err := writeSpans(name, tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}

	// More set-ups after the measured cell, so setup_s is a median and
	// the cell itself ran in a fresh process. Each starts from a collected
	// heap, so none pays for the garbage of the one before.
	for i := 1; i < setupRepeats; i++ {
		runtime.GC()
		t = time.Now()
		g, start := spec.build(hostSeed)
		runtime.KeepAlive(game.NewState(g, start))
		rep.SetupS = append(rep.SetupS, time.Since(t).Seconds())
	}
	return rep, nil
}

// checkCell returns the cell's correctness problems: every host seed must
// converge and verify stable; the reference seed must also reproduce the
// golden record or the recorded reference outcome.
func checkCell(name string, spec cellSpec, hostSeed int64, g *game.Game, fp fingerprint, poa float64) []string {
	var problems []string
	if fp.Outcome != dynamics.Converged.String() {
		problems = append(problems, fmt.Sprintf("%s: dynamics %s, want converged", name, fp.Outcome))
	}
	if !fp.Stable {
		problems = append(problems, name+": verification found an improving move")
	}
	if hostSeed != referenceSeed {
		return problems
	}
	if spec.reference != nil {
		want := *spec.reference
		want.Stable, want.CertSkipped, want.Scanned = fp.Stable, fp.CertSkipped, fp.Scanned
		for _, d := range diffFingerprint(want, fp) {
			problems = append(problems, name+": reference "+d)
		}
	}
	if spec.goldenSeq > 0 {
		want, err := goldenRecord(spec.goldenSeq)
		if err != nil {
			return append(problems, err.Error())
		}
		got := sweep.R("host", spec.hostClass, "n", g.N(), "alpha", g.Alpha,
			"outcome", fp.Outcome, "rounds", fp.Rounds, "moves", fp.Moves,
			"social_cost", fp.SocialCost, "opt_lb", fp.OptLB, "poa_vs_lb", poa,
			"exact_oracle_ne", report.Check(fp.Stable))
		for _, d := range diffRecord(want, got) {
			problems = append(problems, fmt.Sprintf("%s: golden seq %d %s", name, spec.goldenSeq, d))
		}
	}
	return problems
}

// goldenRecord returns the single record of golden quick-sweep cell seq.
func goldenRecord(seq int) (sweep.Record, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return sweep.Record{}, err
	}
	rs, err := sweep.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return sweep.Record{}, err
	}
	for _, c := range rs.Cells {
		if c.Seq == seq && len(c.Records) == 1 {
			return c.Records[0], nil
		}
	}
	return sweep.Record{}, fmt.Errorf("golden cell seq %d not found", seq)
}

// tracedGreedyMover is dynamics.GreedyMover with spans around the scan
// and the strategy edit.
func tracedGreedyMover(tr *tracer) dynamics.Mover {
	return func(s *game.State, u int) (bitset.Set, bool) {
		id := tr.begin("mover")
		defer tr.end(id)
		sid := tr.begin("scan")
		m, _, ok := s.BestSingleMove(u)
		tr.end(sid)
		if !ok {
			return bitset.Set{}, false
		}
		nid := tr.begin("new_strategy")
		strat := m.NewStrategy(s.P.S[u])
		tr.end(nid)
		return strat, true
	}
}

func (t *tracer) maybeBegin(name string) int {
	if t == nil {
		return -1
	}
	return t.begin(name)
}

func (t *tracer) maybeEnd(id int) {
	if t != nil {
		t.end(id)
	}
}

func scanDelta(a, b game.ScanStats) game.ScanStats {
	return game.ScanStats{
		CandidateScans: b.CandidateScans - a.CandidateScans, CandidatesScanned: b.CandidatesScanned - a.CandidatesScanned,
		ExcessSkips: b.ExcessSkips - a.ExcessSkips, ExhaustiveScans: b.ExhaustiveScans - a.ExhaustiveScans,
		Fallbacks: b.Fallbacks - a.Fallbacks,
	}
}

func cacheDelta(a, b game.CacheStats) game.CacheStats {
	return game.CacheStats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		BatchRepairs: b.BatchRepairs - a.BatchRepairs, RepairRefusals: b.RepairRefusals - a.RepairRefusals,
		Evictions: b.Evictions - a.Evictions, Capacity: b.Capacity,
	}
}
