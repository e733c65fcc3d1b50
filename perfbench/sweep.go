package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gncg/internal/coord"
	"gncg/internal/sweep"
)

// sweepExperiments is every quick-sweep experiment except equilibrium,
// whose tree cells tree_path_rewire plays on its own: 119 cells at the
// commit that defined the benchmark.
var sweepExperiments = []string{
	"fig1", "thm1", "lemmas", "approx", "fig2", "thm5", "fig3", "thm9", "thm10",
	"thm11", "thm12", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "thm18",
	"fig10", "thm20", "conj1", "ncg", "oneinf", "empirical", "pos", "table1",
	"scale", "scale_greedy", "equilibrium_xl", "cycle_census", "model_compare",
}

// sweepSetupProbes is the least number of serve launches whose set-up
// time a sweep run measures; runs that complete fewer sweeps add
// launches that stop once the job is listening.
const sweepSetupProbes = 11

// sweepRun is one launch of `experiments serve`.
type sweepRun struct {
	SetupS    float64 // launch to the job listening
	SolveS    float64 // listening to the last cell journaled
	AssembleS float64 // last cell journaled to serve exiting with the merged output
	TotalS    float64
	RSSMB     float64 // largest RSS among serve and its workers
	Cells     int
	Journal   journalStats
	Problems  []string
}

// sweepEnv locates the experiments binary, a scratch directory and the
// golden cells of the selection.
type sweepEnv struct {
	bin, tmp string
	golden   map[cellKey][]byte
}

func newSweepEnv(binDir string) (*sweepEnv, error) {
	env := &sweepEnv{bin: filepath.Join(binDir, "experiments"), tmp: filepath.Join(binDir, "tmp")}
	if _, err := os.Stat(env.bin); err != nil {
		return nil, fmt.Errorf("experiments binary: %w", err)
	}
	if err := os.MkdirAll(env.tmp, 0o755); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	rs, err := sweep.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	selected := make(map[string]bool)
	for _, e := range sweepExperiments {
		selected[e] = true
	}
	env.golden = make(map[cellKey][]byte)
	for _, c := range rs.Cells {
		if selected[c.Experiment] {
			c.Seq = 0
			env.golden[cellKey{c.Experiment, c.Cell.Index}] = sweep.CellJSON(c)
		}
	}
	return env, nil
}

// run launches serve on the selection and waits for it to exit. With
// setupOnly the job gets no workers and serve is killed as soon as it
// listens.
func (env *sweepEnv) run(setupOnly bool) (sweepRun, error) {
	var r sweepRun
	dir, err := os.MkdirTemp(env.tmp, "job-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	shards := "2"
	if setupOnly {
		shards = "0"
	}
	merged := filepath.Join(dir, "merged.json")
	cmd := exec.Command(env.bin, "serve", "-job", dir, "-quick", "-shards", shards, "-workers", "1",
		"-progress", "-run", strings.Join(sweepExperiments, ","), "-out", merged)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return r, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	timer := time.AfterFunc(childTimeout, func() { _ = cmd.Process.Kill() })
	defer timer.Stop()
	var listening, complete time.Duration
	var tail []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case listening == 0 && strings.Contains(line, "listening on http://"):
			listening = time.Since(start)
			if setupOnly {
				_ = cmd.Process.Kill() // Wait below reports the kill; nothing else to stop
			}
		case complete == 0 && strings.HasPrefix(line, "coord: job complete"):
			complete = time.Since(start)
		}
		if tail = append(tail, line); len(tail) > 20 {
			tail = tail[1:]
		}
	}
	waitErr := cmd.Wait()
	total := time.Since(start)
	if listening == 0 {
		return r, fmt.Errorf("serve never listened: %v\n%s", waitErr, strings.Join(tail, "\n"))
	}
	r.SetupS = listening.Seconds()
	if setupOnly {
		return r, nil
	}
	r.TotalS = total.Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.RSSMB = float64(ru.Maxrss) / 1024
	}
	r.Cells = len(env.golden)
	if waitErr != nil || complete == 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("serve failed: %v\n%s", waitErr, strings.Join(tail, "\n")))
		return r, nil
	}
	r.SolveS = (complete - listening).Seconds()
	r.AssembleS = (total - complete).Seconds()

	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err == nil {
		r.Journal, err = parseJournal(journal)
	}
	if err != nil {
		return r, err
	}
	out, err := os.ReadFile(merged)
	if err != nil {
		return r, err
	}
	rs, err := sweep.DecodeJSON(bytes.NewReader(out))
	if err != nil {
		return r, err
	}
	cells := make([][]byte, len(rs.Cells))
	for i, c := range rs.Cells {
		cells[i] = sweep.CellJSON(c)
	}
	r.Problems = compareCells(env.golden, cells)
	if missing := r.Cells - len(cells); missing > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("merged output lacks %d cells", missing))
	}
	r.Problems = append(r.Problems, compareCells(env.golden, r.Journal.Cells)...)
	if r.Journal.Steals > 0 || r.Journal.Expiries > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d steals, %d expired leases on an uncontended job", r.Journal.Steals, r.Journal.Expiries))
	}
	return r, nil
}

// storeAppendProbe times coord.Store.Append of the given cells, one per
// call, into fresh stores until at least 1000 appends are timed.
func (env *sweepEnv) storeAppendProbe(cells [][]byte) ([]float64, error) {
	decoded := make([]sweep.CellResult, len(cells))
	for i, raw := range cells {
		c, err := sweep.DecodeCellJSON(raw)
		if err != nil {
			return nil, err
		}
		decoded[i] = c
	}
	var us []float64
	for len(us) < 1000 {
		dir, err := os.MkdirTemp(env.tmp, "store-")
		if err != nil {
			return nil, err
		}
		err = appendAll(dir, decoded, &us)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return us, nil
}

func appendAll(dir string, cells []sweep.CellResult, us *[]float64) error {
	st, err := coord.Open(dir, coord.JobSpec{Spec: "store-append-probe", Quick: true, Cells: len(cells)}, false)
	if err != nil {
		return err
	}
	defer st.Close()
	for _, c := range cells {
		t := time.Now()
		if err := st.Append([]coord.Done{{Cell: c, Shard: "probe"}}); err != nil {
			return err
		}
		*us = append(*us, sinceUS(t))
	}
	return nil
}
