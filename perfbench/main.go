// Command perfbench is the repository's benchmark. It runs one workload
// in a closed loop for a fixed time, checks every result against the
// golden quick sweep or recorded reference outcomes, and prints one JSON
// line of metrics:
//
//	perfbench --workload l2_star_scan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// plays one traced cell (or sweep) and reports the per-layer metrics.
// Each equilibrium cell runs in a fresh child process, so its peak RSS
// is its own. --host-seed (default 13, the golden seed) seeds the host
// generators; --seed seeds only the probes' samples. See README.md for
// the workloads, the metric definitions and the layer map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// metricDef names a metric of the result line and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"solve_s", "s"}, {"verify_s", "s"}, {"cell_s", "s"},
	{"peak_rss_mb", "MB"}, {"cells_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"scan.calls", "count"}, {"scan.us_p50", "us"}, {"scan.us_p99", "us"}, {"scan.self_s", "s"},
	{"scan.candidate_scans", "count"}, {"scan.candidates_scanned", "count"}, {"scan.excess_skips", "count"},
	{"scan.exhaustive_scans", "count"}, {"scan.fallbacks", "count"},
	{"scan.candidates_per_scan", "count"}, {"scan.move_yield", "ratio"},
	{"cost_after.us_p50", "us"}, {"cost_after.us_p99", "us"},
	{"apply.self_s", "s"}, {"apply.new_strategy.us_p50", "us"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.batch_repairs", "count"},
	{"cache.repair_refusals", "count"}, {"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"}, {"cache.refusal_ratio", "ratio"},
	{"graph.dijkstra.us_p50", "us"}, {"graph.dijkstra.us_p99", "us"}, {"graph.repair_row_batch.us_p50", "us"},
	{"verify.cert_skipped", "count"}, {"verify.scanned", "count"}, {"verify.cert_skip_frac", "ratio"},
	{"verify.workers", "count"}, {"verify.serial_s", "s"}, {"verify.parallel_eff", "ratio"},
	{"state.clone_ms", "ms"}, {"state.clone_mb", "MB"}, {"state.spoke40k_mb", "MB"},
	{"geom.kdtree_build_ms", "ms"}, {"geom.append_within.us_p50", "us"},
	{"geom.treeindex_build_ms", "ms"}, {"geom.for_each_within.us_p50", "us"},
	{"opt.lower_bound_s", "s"},
	{"dynamics.rounds", "count"}, {"dynamics.moves", "count"},
	{"coord.leases", "count"}, {"coord.cells_per_lease", "count"}, {"coord.lease_ms_p50", "ms"},
	{"coord.steals", "count"}, {"coord.store_append.us_p50", "us"}, {"coord.store_append.us_p99", "us"},
	{"sweep.assemble_ms", "ms"},
	{"run.alloc_mb", "MB"}, {"run.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
}

const sweepWorkload = "sweep_small_cells"

// childTimeout bounds any one process the benchmark starts.
const childTimeout = 150 * time.Second

type options struct {
	workload string
	seed     int64
	hostSeed int64
	seconds  int
	trace    bool
	binDir   string
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	child := fs.Bool("child", false, "play one cell in this process and print its report (used by the benchmark itself)")
	fs.StringVar(&o.workload, "workload", "", "workload name: "+sweepWorkload+" or one of the cell workloads")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the probes' samples")
	fs.Int64Var(&o.hostSeed, "host-seed", referenceSeed, "seed of the host generators; the golden and reference checks apply at 13")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the closed loop runs")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if *child {
		rep, err := runCell(o.workload, o.hostSeed, o.seed, o.trace)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.binDir = filepath.Dir(exe)
	var res result
	switch {
	case o.workload == sweepWorkload:
		res, err = runSweepWorkload(o)
	case cellSpecs[o.workload].build != nil:
		res, err = runCellWorkload(o, exe)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// newResult fills a result line with every metric of the run's kind, at
// zero until the workload sets it: layers a workload does not reach
// read 0.
func newResult(o options, values map[string]float64, attempted int, problems []string) result {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	r := result{Attempted: attempted, Failed: min(attempted, len(problems)), Metrics: make(map[string]metricValue)}
	r.Correct = r.Failed == 0
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// spawnCell plays one cell in a fresh child process and returns its
// report, its wall time and its peak RSS in MB.
func spawnCell(o options, exe string, traced bool) (cellReport, float64, float64, error) {
	var rep cellReport
	cmd := exec.Command(exe, "--child", "--workload", o.workload,
		"--host-seed", strconv.FormatInt(o.hostSeed, 10), "--seed", strconv.FormatInt(o.seed, 10),
		"--trace", map[bool]string{false: "0", true: "1"}[traced])
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, 0, err
	}
	timer := time.AfterFunc(childTimeout, func() { _ = cmd.Process.Kill() })
	err := cmd.Wait()
	timer.Stop()
	wall := time.Since(start).Seconds()
	if err != nil {
		return rep, wall, 0, fmt.Errorf("cell process: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, wall, 0, fmt.Errorf("cell report: %w", err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return rep, wall, rss, nil
}

// runCellWorkload runs an equilibrium-cell workload: untraced cells in a
// closed loop, or one untraced and one traced cell. Timings are medians
// over the run's cells; peak_rss_mb is the smallest per-process peak,
// because GC overshoot only ever raises a peak.
func runCellWorkload(o options, exe string) (result, error) {
	var reps []cellReport
	var walls, rss []float64
	var problems []string
	loop := time.Now()
	for {
		rep, wall, mb, err := spawnCell(o, exe, false)
		if err != nil {
			return result{}, err
		}
		reps, walls, rss = append(reps, rep), append(walls, wall), append(rss, mb)
		problems = append(problems, rep.Problems...)
		// Start another cell only if it should end within the run.
		if o.trace || time.Since(loop).Seconds()+median(walls) > float64(o.seconds) {
			break
		}
	}
	elapsed := time.Since(loop).Seconds()
	if o.trace {
		traced, _, _, err := spawnCell(o, exe, true)
		if err != nil {
			return result{}, err
		}
		problems = append(problems, traced.Problems...)
		for _, d := range diffFingerprint(reps[0].Fingerprint, traced.Fingerprint) {
			problems = append(problems, "traced run differs from untraced: "+d)
		}
		traced.Layers["trace.overhead_frac"] = (traced.SolveS - reps[0].SolveS) / reps[0].SolveS
		return newResult(o, traced.Layers, 2, problems), nil
	}
	var setup, solve, verify, cell []float64
	for _, r := range reps {
		setup = append(setup, r.SetupS...)
		solve, verify, cell = append(solve, r.SolveS), append(verify, r.VerifyS), append(cell, r.CellS)
	}
	return newResult(o, map[string]float64{
		"setup_s": median(setup), "solve_s": median(solve), "verify_s": median(verify),
		"cell_s": median(cell), "peak_rss_mb": slices.Min(rss),
		"cells_per_s": float64(len(reps)) / elapsed,
	}, len(reps), problems), nil
}

// runSweepWorkload runs sweep_small_cells: whole sweeps through serve in
// a closed loop, or one untraced and one traced sweep. Metrics aggregate
// as in runCellWorkload.
func runSweepWorkload(o options) (result, error) {
	env, err := newSweepEnv(o.binDir)
	if err != nil {
		return result{}, err
	}
	var runs []sweepRun
	var problems []string
	loop := time.Now()
	for {
		r, err := env.run(false)
		if err != nil {
			return result{}, err
		}
		runs = append(runs, r)
		problems = append(problems, r.Problems...)
		var totals []float64
		for _, r := range runs {
			totals = append(totals, r.TotalS)
		}
		if o.trace || time.Since(loop).Seconds()+median(totals) > float64(o.seconds) {
			break
		}
	}
	elapsed := time.Since(loop).Seconds()
	if o.trace {
		return traceSweep(o, env, runs[0], problems)
	}
	attempted := 0
	var setup, solve, total, rss []float64
	for _, r := range runs {
		attempted += r.Cells
		setup, solve = append(setup, r.SetupS), append(solve, r.SolveS)
		total, rss = append(total, r.TotalS), append(rss, r.RSSMB)
	}
	for len(setup) < sweepSetupProbes {
		r, err := env.run(true)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, r.SetupS)
	}
	// The sweep's cells verify their own results, so its time to a
	// verified result is the whole job.
	return newResult(o, map[string]float64{
		"setup_s": median(setup), "solve_s": median(solve), "verify_s": median(total),
		"cell_s": median(total), "peak_rss_mb": slices.Min(rss),
		"cells_per_s": float64(attempted) / elapsed,
	}, attempted, problems), nil
}

// traceSweep runs one traced sweep after the untraced reference and
// derives the coord/sweep layer metrics from its journal and a store
// append probe.
func traceSweep(o options, env *sweepEnv, untraced sweepRun, problems []string) (result, error) {
	tr := newTracer()
	id := tr.begin("sweep")
	r, err := env.run(false)
	tr.end(id)
	if err != nil {
		return result{}, err
	}
	problems = append(problems, r.Problems...)
	pid := tr.begin("coord.store_append")
	us, err := env.storeAppendProbe(r.Journal.Cells)
	tr.end(pid)
	if err != nil {
		return result{}, err
	}
	if err := writeSpans(o.workload, tr.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	j := r.Journal
	return newResult(o, map[string]float64{
		"coord.leases":              float64(j.Leases),
		"coord.cells_per_lease":     ratio(float64(len(j.Cells)), float64(j.Leases)),
		"coord.lease_ms_p50":        median(j.LeaseMS),
		"coord.steals":              float64(j.Steals),
		"coord.store_append.us_p50": median(us),
		"coord.store_append.us_p99": p99(us),
		"sweep.assemble_ms":         r.AssembleS * 1000,
		"trace.overhead_frac":       (r.SolveS - untraced.SolveS) / untraced.SolveS,
	}, untraced.Cells+r.Cells, problems), nil
}
