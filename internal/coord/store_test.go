package coord

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gncg/internal/sweep"
)

// testExps builds a small deterministic registry-independent selection:
// cells are pure functions of their parameters, so any crash/resume
// interleaving must reproduce them byte-for-byte.
func testExps() []sweep.Experiment {
	return []sweep.Experiment{
		{
			Name: "grid", Title: "test grid",
			Space: func(quick bool) sweep.Space {
				n := []int{2, 3, 5, 8}
				if quick {
					n = []int{2, 3}
				}
				return sweep.Space{Axes: []sweep.Axis{
					sweep.Ints("n", n...),
					sweep.Strings("mode", "a", "b"),
					sweep.Int64s("seed", sweep.Seq(2)...),
				}}
			},
			Schema: []string{"v"},
			Run: func(p sweep.Params) []sweep.Record {
				v := p.RNG().Float64() * float64(p.Int("n"))
				if p.Str("mode") == "b" {
					v = -v
				}
				return []sweep.Record{sweep.R("v", v)}
			},
		},
		{
			Name: "scalar", Title: "test scalar",
			Run: func(p sweep.Params) []sweep.Record {
				return []sweep.Record{sweep.R("answer", 42)}
			},
		},
	}
}

const testSpec = "grid,scalar"

func refRun(t *testing.T, exps []sweep.Experiment) (*sweep.ResultSet, string) {
	t.Helper()
	rs, err := sweep.Run(exps, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return rs, buf.String()
}

func encodeSet(t *testing.T, rs *sweep.ResultSet) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestStoreRoundTripAndCompaction(t *testing.T) {
	exps := testExps()
	ref, refJSON := refRun(t, exps)
	spec := SpecFor(testSpec, false, exps)
	dir := t.TempDir()

	s, err := Open(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint in uneven batches, as leases would.
	for i := 0; i < len(ref.Cells); i += 3 {
		end := i + 3
		if end > len(ref.Cells) {
			end = len(ref.Cells)
		}
		var batch []Done
		for _, c := range ref.Cells[i:end] {
			batch = append(batch, Done{Cell: c, Shard: "shard-0", LeaseMS: 7, Steals: 0})
		}
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CountDone(); got != len(ref.Cells) {
		t.Fatalf("CountDone = %d, want %d", got, len(ref.Cells))
	}
	rs, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("store results differ from unsharded run before reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: loads, verifies, compacts.
	s2, err := Open(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rs2, err := s2.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs2) != refJSON {
		t.Fatal("store results differ from unsharded run after resume")
	}
	// Compaction: journal is back to a lone header, snapshot carries the
	// cells in canonical whole-set encoding.
	j, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(j), "\n"); lines != 1 {
		t.Fatalf("post-compaction journal has %d lines, want 1 (header only):\n%s", lines, j)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != refJSON {
		t.Fatal("snapshot is not the canonical encoding of the done cells")
	}
}

func TestStoreTornTrailingLineTolerated(t *testing.T) {
	exps := testExps()
	ref, _ := refRun(t, exps)
	spec := SpecFor(testSpec, false, exps)
	dir := t.TempDir()
	s, err := Open(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Done{{Cell: ref.Cells[0], Shard: "s"}, {Cell: ref.Cells[1], Shard: "s"}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// SIGKILL mid-append: the final line is torn. It must be dropped, the
	// complete lines kept.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := string(sweep.CellJSON(ref.Cells[2]))
	fmt.Fprintf(f, `{"type": "done", "shard": "s", "lease_ms": 1, "steals": 0, "cell": %s`, torn[:len(torn)/2])
	f.Close()

	s2, err := Open(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.CountDone(); got != 2 {
		t.Fatalf("CountDone after torn line = %d, want 2", got)
	}

	// Same garbage mid-file is corruption, not a torn append.
	s2.Close()
	f, err = os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "{\"type\": \"done\", \"cell\": {garbage\n")
	raw := sweep.CellJSON(ref.Cells[3])
	fmt.Fprintf(f, `{"type": "done", "shard": "s", "lease_ms": 1, "steals": 0, "cell": %s}`+"\n", raw)
	f.Close()
	if _, err := Open(dir, spec, true); err == nil {
		t.Fatal("mid-file corruption was accepted")
	}
}

func TestStoreSpecGuards(t *testing.T) {
	exps := testExps()
	spec := SpecFor(testSpec, false, exps)
	dir := t.TempDir()
	s, err := Open(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A journal present without -resume fails loudly.
	if _, err := Open(dir, spec, false); err == nil {
		t.Fatal("reopen without resume was accepted")
	}
	// A different spec cannot resume this dir.
	other := SpecFor(testSpec, true, exps)
	if _, err := Open(dir, other, true); err == nil {
		t.Fatal("resume under a different spec was accepted")
	}
	// The matching spec can.
	s2, err := Open(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// ReadSpec surfaces the header for flag inheritance.
	got, ok, err := ReadSpec(dir)
	if err != nil || !ok || got != spec {
		t.Fatalf("ReadSpec = %+v, %t, %v; want header back", got, ok, err)
	}
	if _, ok, err := ReadSpec(t.TempDir()); ok || err != nil {
		t.Fatalf("ReadSpec on fresh dir = ok=%t err=%v, want miss", ok, err)
	}
}

func TestStoreLockExcludesSecondOwner(t *testing.T) {
	exps := testExps()
	spec := SpecFor(testSpec, false, exps)
	dir := t.TempDir()
	s, err := Open(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Open(dir, spec, true); err == nil {
		t.Fatal("second coordinator acquired a locked job dir")
	}
}

func TestStoreDuplicateAndConflict(t *testing.T) {
	exps := testExps()
	ref, _ := refRun(t, exps)
	spec := SpecFor(testSpec, false, exps)
	s, err := Open(t.TempDir(), spec, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append([]Done{{Cell: ref.Cells[0]}}); err != nil {
		t.Fatal(err)
	}
	// A late duplicate of identical bytes (stolen lease reporting after
	// re-issue) is silently dropped.
	if err := s.Append([]Done{{Cell: ref.Cells[0]}}); err != nil {
		t.Fatal(err)
	}
	if got := s.CountDone(); got != 1 {
		t.Fatalf("CountDone = %d, want 1", got)
	}
	// The same seq with a different payload is a mixed-run conflict.
	mut := ref.Cells[1]
	mut.Seq = ref.Cells[0].Seq
	if err := s.Append([]Done{{Cell: mut}}); err == nil {
		t.Fatal("conflicting duplicate was accepted")
	}
}
