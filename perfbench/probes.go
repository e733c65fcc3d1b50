package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/geom"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// Probe sizes. Per-call probes take at least 1000 samples so that their
// p99 has ten samples beyond it.
const (
	costAfterSamples = 1200
	dijkstraSamples  = 1000
	repairSamples    = 500
	geomSamples      = 1000
	spokeN           = 40000
)

const mib = 1 << 20

// layerMetrics derives the per-layer metrics of a traced cell from its
// spans and counter deltas, then runs the probes on the final state.
func layerMetrics(tr *tracer, s *game.State, spec cellSpec, v game.VerifyResult, rep *cellReport,
	scan game.ScanStats, cache game.CacheStats, mem0, mem1 runtime.MemStats, probeSeed int64) map[string]float64 {
	m := make(map[string]float64)
	spans := tr.spans
	scans := durations(spans, "scan")
	m["scan.calls"] = float64(len(scans))
	m["scan.us_p50"] = median(scans)
	m["scan.us_p99"] = p99(scans)
	m["scan.self_s"] = selfSeconds(spans, "scan")
	m["scan.candidate_scans"] = float64(scan.CandidateScans)
	m["scan.candidates_scanned"] = float64(scan.CandidatesScanned)
	m["scan.excess_skips"] = float64(scan.ExcessSkips)
	m["scan.exhaustive_scans"] = float64(scan.ExhaustiveScans)
	m["scan.fallbacks"] = float64(scan.Fallbacks)
	m["scan.candidates_per_scan"] = ratio(float64(scan.CandidatesScanned), float64(scan.CandidateScans))
	m["scan.move_yield"] = ratio(float64(rep.Fingerprint.Moves), float64(len(scans)))

	m["apply.self_s"] = selfSeconds(spans, "solve")
	m["apply.new_strategy.us_p50"] = median(durations(spans, "new_strategy"))

	m["cache.hits"] = float64(cache.Hits)
	m["cache.misses"] = float64(cache.Misses)
	m["cache.batch_repairs"] = float64(cache.BatchRepairs)
	m["cache.repair_refusals"] = float64(cache.RepairRefusals)
	m["cache.evictions"] = float64(cache.Evictions)
	m["cache.hit_ratio"] = ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses))
	m["cache.refusal_ratio"] = ratio(float64(cache.RepairRefusals), float64(cache.BatchRepairs))

	m["opt.lower_bound_s"] = rep.LowerBoundS
	m["dynamics.rounds"] = float64(rep.Fingerprint.Rounds)
	m["dynamics.moves"] = float64(rep.Fingerprint.Moves)
	m["run.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / mib
	m["run.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)

	// Verification, then the single-threaded baseline of the same check.
	m["verify.cert_skipped"] = float64(v.CertSkipped)
	m["verify.scanned"] = float64(v.Scanned)
	m["verify.cert_skip_frac"] = ratio(float64(v.CertSkipped), float64(v.CertSkipped+v.Scanned))
	m["verify.workers"] = float64(v.Workers)
	serialOpt := spec.verify
	serialOpt.Workers = 1
	t := time.Now()
	sv := game.VerifyGreedyEquilibrium(s, serialOpt)
	m["verify.serial_s"] = time.Since(t).Seconds()
	m["verify.parallel_eff"] = ratio(m["verify.serial_s"], float64(v.Workers)*rep.VerifyS)
	if sv.Stable != v.Stable || sv.CertSkipped != v.CertSkipped || sv.Scanned != v.Scanned {
		rep.Problems = append(rep.Problems, "serial verification disagrees with the parallel one")
	}

	rng := rand.New(rand.NewSource(probeSeed))
	m["cost_after.us_p50"], m["cost_after.us_p99"] = costAfterProbe(s, rng)
	dij := dijkstraProbe(s, rng)
	m["graph.dijkstra.us_p50"], m["graph.dijkstra.us_p99"] = median(dij), p99(dij)
	rr, bad := repairProbe(s, rng)
	m["graph.repair_row_batch.us_p50"] = median(rr)
	if bad > 0 {
		rep.Problems = append(rep.Problems, "RepairRowBatch disagreed with Dijkstra on a probe row")
	}
	m["state.clone_ms"], m["state.clone_mb"] = cloneProbe(s)
	geomProbe(s, m, rng)
	if s.G.N() >= 5000 {
		m["state.spoke40k_mb"] = spokeProbe(probeSeed)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sinceUS(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }

// costAfterProbe times State.CostAfter over a deterministic sample that
// cycles through buys, deletes and swaps on the final state (a swap
// becomes a delete for an agent that owns every other node).
func costAfterProbe(s *game.State, rng *rand.Rand) (p50, tail float64) {
	n := s.G.N()
	var owners []int
	for u := 0; u < n; u++ {
		if !s.P.S[u].Empty() {
			owners = append(owners, u)
		}
	}
	// free returns a node u could buy, or -1 when u owns every other node.
	free := func(u int) int {
		for try := 0; try < 64; try++ {
			if x := rng.Intn(n); x != u && !s.P.S[u].Has(x) {
				return x
			}
		}
		for x := range n {
			if x != u && !s.P.S[u].Has(x) {
				return x
			}
		}
		return -1
	}
	var us []float64
	for i := 0; len(us) < costAfterSamples; i++ {
		var m game.Move
		if i%3 == 0 {
			u := rng.Intn(n)
			if m = (game.Move{Agent: u, Kind: game.Buy, V: free(u)}); m.V < 0 {
				continue
			}
		} else {
			u := owners[rng.Intn(len(owners))]
			vs := s.P.S[u].Elems()
			m = game.Move{Agent: u, Kind: game.Delete, V: vs[rng.Intn(len(vs))]}
			if i%3 == 2 {
				if x := free(u); x >= 0 {
					m.Kind, m.X = game.Swap, x
				}
			}
		}
		t := time.Now()
		s.CostAfter(m)
		us = append(us, sinceUS(t))
	}
	return median(us), p99(us)
}

// dijkstraProbe times full Dijkstra rows of the final network from
// sampled sources.
func dijkstraProbe(s *game.State, rng *rand.Rand) []float64 {
	net := s.Network()
	var us []float64
	for i := 0; i < dijkstraSamples; i++ {
		src := rng.Intn(net.N())
		t := time.Now()
		net.Dijkstra(src)
		us = append(us, sinceUS(t))
	}
	return us
}

// repairProbe times RepairRowBatch on copies of final rows across the
// deletion of one edge of the final profile, and counts repaired rows
// that differ from a fresh Dijkstra.
func repairProbe(s *game.State, rng *rand.Rand) (us []float64, bad int) {
	net := s.Network()
	n := net.N()
	edges := s.P.OwnedEdges()
	work := net.Clone()
	for i := 0; i < repairSamples; i++ {
		e := edges[rng.Intn(len(edges))]
		src := rng.Intn(n)
		row := net.Dijkstra(src)
		w := net.EdgeWeight(e.Owner, e.To)
		work.RemoveEdge(e.Owner, e.To)
		t := time.Now()
		ok := work.RepairRowBatch(row, src, []graph.Edge{{U: e.Owner, V: e.To, W: w}}, nil, graph.DefaultRepairBudget(n), nil)
		us = append(us, sinceUS(t))
		if ok {
			for x, d := range work.Dijkstra(src) {
				if math.Float64bits(d) != math.Float64bits(row[x]) {
					bad++
					break
				}
			}
		}
		work.AddEdge(e.Owner, e.To, w)
	}
	return us, bad
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cloneProbe returns the median time of five State.Clone calls and the
// live heap one clone holds.
func cloneProbe(s *game.State) (ms, mb float64) {
	var times []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		runtime.KeepAlive(s.Clone())
		times = append(times, float64(time.Since(t))/float64(time.Millisecond))
	}
	before := liveHeap()
	c := s.Clone()
	after := liveHeap()
	runtime.KeepAlive(c)
	return median(times), float64(after-before) / mib
}

// spokeProbe returns the live heap of a NewState plus one Clone on a
// leaf-owned star of spokeN agents.
func spokeProbe(seed int64) float64 {
	g := game.New(game.NewHost(gen.Points(seed, spokeN, 2, 1000, 2)), spokeN)
	before := liveHeap()
	st := game.NewState(g, game.SpokeProfile(spokeN, 0))
	c := st.Clone()
	after := liveHeap()
	runtime.KeepAlive(st)
	runtime.KeepAlive(c)
	return float64(after-before) / mib
}

// geomProbe times the host's neighbourhood index: the build, and radius
// queries sized to return the mean candidate count the scans saw.
func geomProbe(s *game.State, m map[string]float64, rng *rand.Rand) {
	n := s.G.N()
	k := max(1, int(math.Round(m["scan.candidates_per_scan"])))
	switch sp := s.G.Host.Space().(type) {
	case *metric.Points:
		m["geom.kdtree_build_ms"] = buildMS(func() { geom.NewKDTree(sp.Coords, sp.P) })
		kd := geom.NewKDTree(sp.Coords, sp.P)
		var us []float64
		var buf []int
		for i := 0; i < geomSamples; i++ {
			q := sp.Coords[rng.Intn(n)]
			nn := kd.KNearest(q, k)
			r := metric.PNormDist(q, sp.Coords[nn[len(nn)-1]], sp.P)
			t := time.Now()
			buf = kd.AppendWithin(q, r, buf[:0])
			us = append(us, sinceUS(t))
		}
		m["geom.append_within.us_p50"] = median(us)
	case *metric.TreeMetric:
		m["geom.treeindex_build_ms"] = buildMS(func() { geom.NewTreeIndex(n, sp.Edges()) })
		idx := geom.NewTreeIndex(n, sp.Edges())
		var us []float64
		dist := make([]float64, n)
		for i := 0; i < geomSamples; i++ {
			u := rng.Intn(n)
			for v := range dist {
				dist[v] = sp.Dist(u, v)
			}
			sort.Float64s(dist)
			r := dist[min(k, n)-1]
			seen := 0
			t := time.Now()
			idx.ForEachWithin(u, r, func(int, float64) { seen++ })
			us = append(us, sinceUS(t))
		}
		m["geom.for_each_within.us_p50"] = median(us)
	}
}

// buildMS returns the median of three timed builds, in milliseconds.
func buildMS(build func()) float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		build()
		ms = append(ms, float64(time.Since(t))/float64(time.Millisecond))
	}
	return median(ms)
}

// writeSpans writes a traced cell's spans next to the benchmark binary.
func writeSpans(workload string, spans []span) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(exe), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), data, 0o644)
}
