package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"gncg/internal/sweep"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95},
		{200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {20, 0.5}, {19, 0},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestP99FallsBackToReportableTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got, want := p99(xs), quantile(xs, 0.99); got != want {
		t.Errorf("p99 of 1000 samples = %v, want the 99th percentile %v", got, want)
	}
	if got, want := p99(xs[:500]), quantile(xs[:500], 0.95); got != want {
		t.Errorf("p99 of 500 samples = %v, want the 95th percentile %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "solve", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "mover", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "scan", Parent: 1, Start: ms(12), End: ms(28)},
		{Name: "mover", Parent: 0, Start: ms(40), End: ms(70)},
		{Name: "scan", Parent: 3, Start: ms(40), End: ms(70)},
		// Overlapping children of one parent count once.
		{Name: "verify", Parent: -1, Start: ms(200), End: ms(300)},
		{Name: "worker", Parent: 5, Start: ms(200), End: ms(260)},
		{Name: "worker", Parent: 5, Start: ms(220), End: ms(280)},
	}
	for _, c := range []struct {
		name string
		want time.Duration
	}{
		{"solve", ms(50)}, {"mover", ms(4)}, {"scan", ms(46)}, {"verify", ms(20)}, {"worker", ms(120)},
	} {
		if got := selfSeconds(spans, c.name); math.Abs(got-c.want.Seconds()) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", c.name, got, c.want.Seconds())
		}
	}
	if got := durations(spans, "scan"); len(got) != 2 || got[0] != 16000 || got[1] != 30000 {
		t.Errorf("scan durations = %v µs, want [16000 30000]", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	c := tr.begin("c")
	tr.end(c)
	tr.end(a)
	d := tr.begin("d")
	tr.end(d)
	want := []int{-1, a, a, -1}
	for i, s := range tr.spans {
		if s.Parent != want[i] {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, want[i])
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

const journalFixture = `{"type":"job","job":{"spec":"fig1,thm1","quick":true,"cells":4,"fingerprint":"fig1:1;thm1:3;"}}
{"type":"lease","shard":"shard-1","id":1,"cells":[0,1]}
{"type":"lease","shard":"shard-0","id":2,"cells":[2,3]}
{"type": "done", "shard": "shard-1", "lease_ms": 12, "steals": 0, "cell": {"seq": 0, "experiment": "fig1", "cell": 0, "records": []}}
{"type": "done", "shard": "shard-1", "lease_ms": 12, "steals": 0, "cell": {"seq": 1, "experiment": "thm1", "cell": 0, "params": {"seed": 0}, "records": []}}
{"type": "done", "shard": "shard-0", "lease_ms": 30, "steals": 1, "cell": {"seq": 2, "experiment": "thm1", "cell": 1, "params": {"seed": 1}, "records": []}}
{"type":"expire","shard":"shard-0","id":2,"cells":[3]}
{"type": "done", "shard": "shard-0", "lease_ms": 30, "steals": 0, "cell": {"seq": 3, "experiment": "thm1", "cell": 2, "params": {"seed": 2}, "records": []}}
`

func TestParseJournal(t *testing.T) {
	st, err := parseJournal([]byte(journalFixture))
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 2 || st.Steals != 1 || st.Expiries != 1 || len(st.Cells) != 4 {
		t.Errorf("leases %d steals %d expiries %d cells %d, want 2 1 1 4", st.Leases, st.Steals, st.Expiries, len(st.Cells))
	}
	// The expire line splits shard-0's two reports with equal lease_ms.
	if want := []float64{12, 30, 30}; len(st.LeaseMS) != len(want) || st.LeaseMS[0] != 12 || st.LeaseMS[1] != 30 || st.LeaseMS[2] != 30 {
		t.Errorf("lease_ms per finishing lease = %v, want %v", st.LeaseMS, want)
	}
	if !strings.HasPrefix(string(st.Cells[1]), `{"seq": 1, "experiment": "thm1"`) {
		t.Errorf("done cell bytes not kept verbatim: %s", st.Cells[1])
	}
	if _, err := parseJournal([]byte("{\"type\":\"done\"\n")); err == nil {
		t.Error("a torn journal line parsed without error")
	}
}

func TestCompareCellsIgnoresSeqOnly(t *testing.T) {
	gold := sweep.CellResult{Experiment: "thm1", Cell: sweep.Params{Index: 2},
		Records: []sweep.Record{sweep.R("alpha", 1.5, "ok", "PASS")}}
	golden := map[cellKey][]byte{{"thm1", 2}: sweep.CellJSON(gold)}

	shifted := gold
	shifted.Seq = 40
	if p := compareCells(golden, [][]byte{sweep.CellJSON(shifted)}); len(p) != 0 {
		t.Errorf("a cell differing only in seq was rejected: %v", p)
	}
	drifted := shifted
	drifted.Records = []sweep.Record{sweep.R("alpha", math.Nextafter(1.5, 2), "ok", "PASS")}
	other := gold
	other.Cell.Index = 3
	p := compareCells(golden, [][]byte{sweep.CellJSON(drifted), sweep.CellJSON(other), sweep.CellJSON(shifted)})
	if len(p) != 3 {
		t.Fatalf("got %d problems, want an ulp drift, a cell without golden and a duplicate: %v", len(p), p)
	}
}

func TestDiffFingerprint(t *testing.T) {
	a := fingerprint{Outcome: "converged", Rounds: 5, Moves: 559, SocialCost: 9080881.076628797,
		OptLB: 8972005.428451726, Stable: true, CertSkipped: 3, Scanned: 497}
	if d := diffFingerprint(a, a); len(d) != 0 {
		t.Errorf("identical fingerprints differ: %v", d)
	}
	b := a
	b.SocialCost = math.Nextafter(a.SocialCost, 0)
	b.Moves = 560
	d := diffFingerprint(a, b)
	if len(d) != 2 || !strings.HasPrefix(d[0], "moves") || !strings.HasPrefix(d[1], "social_cost") {
		t.Errorf("want moves and a one-ulp social_cost difference, got %v", d)
	}
	// Round-tripping through the cell report keeps every bit.
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var c fingerprint
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if d := diffFingerprint(a, c); len(d) != 0 {
		t.Errorf("JSON round trip changed the fingerprint: %v", d)
	}
}

func TestDiffRecord(t *testing.T) {
	golden := sweep.R("host", "tree", "n", 500, "alpha", 500, "social_cost", 9080881.076628797, "ok", "PASS")
	same := sweep.R("host", "tree", "n", 500, "alpha", 500.0, "social_cost", 9080881.076628797, "ok", "PASS")
	if d := diffRecord(golden, same); len(d) != 0 {
		t.Errorf("an integral float alpha should match the golden integer: %v", d)
	}
	off := sweep.R("host", "tree", "n", 500, "alpha", 500.0, "social_cost", math.Nextafter(9080881.076628797, 0), "ok", "FAIL")
	if d := diffRecord(golden, off); len(d) != 2 {
		t.Errorf("want social_cost and ok to differ, got %v", d)
	}
	if d := diffRecord(golden, sweep.R("host", "tree")); len(d) == 0 {
		t.Error("a truncated record matched")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with the names and units the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if w.Name != sweepWorkload && cellSpecs[w.Name].build == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
