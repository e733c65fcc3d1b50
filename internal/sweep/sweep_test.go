package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func toyExperiments() []Experiment {
	// A mix of shapes: a full multi-axis space (two string axes — the
	// shape the old closed grid could not express), a seeds-only trial
	// ladder, and a scalar single-cell experiment. Cell outputs are pure
	// functions of the cell parameters (via the cell-local RNG), so any
	// execution order must reproduce them exactly.
	return []Experiment{
		{
			Name: "toy-grid", Title: "toy full grid", Tags: []string{"toy", "grid"},
			Space: func(quick bool) Space {
				trials := 3
				if quick {
					trials = 1
				}
				return Space{Axes: []Axis{
					Strings("host", "uniform", "clustered"),
					Strings("sched", "rr", "random"),
					Floats("alpha", 0.5, 1, 2),
					Ints("n", 4, 8),
					Int64s("seed", Seq(trials)...),
				}}
			},
			Schema: []string{"value", "host", "inf_guard"},
			Run: func(p Params) []Record {
				rng := p.RNG()
				v := rng.Float64() * p.Float("alpha") * float64(p.Int("n"))
				if p.Str("sched") == "random" {
					v = -v
				}
				return []Record{R("value", v, "host", p.Str("host"), "inf_guard", math.Inf(1))}
			},
		},
		{
			Name: "toy-trials", Title: "toy seed ladder", Tags: []string{"toy"},
			Space: func(quick bool) Space { return Space{Axes: []Axis{Int64s("seed", Seq(7)...)}} },
			Run: func(p Params) []Record {
				var recs []Record
				for i := 0; i <= int(p.Seed())%3; i++ {
					recs = append(recs, R("trial", i, "seed2", p.Seed()*p.Seed()))
				}
				return recs
			},
		},
		{
			Name: "toy-scalar", Title: "toy scalar", Tags: []string{"scalar"},
			Run: func(p Params) []Record { return []Record{R("answer", 42)} },
		},
	}
}

func encodeBoth(t *testing.T, rs *ResultSet) (string, string) {
	t.Helper()
	var j, c bytes.Buffer
	if err := rs.EncodeJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := rs.EncodeCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

func mustMerge(t *testing.T, sets ...*ResultSet) *ResultSet {
	t.Helper()
	rs, err := Merge(sets...)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestShardAndWorkerDeterminism is the engine's core contract: the same
// space and seeds must produce byte-identical JSON and CSV regardless of
// worker count and shard partitioning — including across a multi-axis
// space with several string axes.
func TestShardAndWorkerDeterminism(t *testing.T) {
	exps := toyExperiments()
	ref, err := Run(exps, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.FirstErr(); err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := encodeBoth(t, ref)
	if len(ref.Cells) != 2*2*3*2*3+7+1 {
		t.Fatalf("unexpected cell count %d", len(ref.Cells))
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := Run(exps, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		gj, gc := encodeBoth(t, got)
		if gj != refJSON {
			t.Fatalf("workers=%d: JSON differs from single-worker run", workers)
		}
		if gc != refCSV {
			t.Fatalf("workers=%d: CSV differs from single-worker run", workers)
		}
	}
	for _, shards := range []int{2, 3, 5} {
		var parts []*ResultSet
		total := 0
		for shard := 0; shard < shards; shard++ {
			part, err := Run(exps, Config{Workers: 4, Shards: shards, Shard: shard})
			if err != nil {
				t.Fatal(err)
			}
			total += len(part.Cells)
			parts = append(parts, part)
		}
		if total != len(ref.Cells) {
			t.Fatalf("shards=%d: partition covers %d cells, want %d", shards, total, len(ref.Cells))
		}
		merged := mustMerge(t, parts...)
		gj, gc := encodeBoth(t, merged)
		if gj != refJSON {
			t.Fatalf("shards=%d: merged JSON differs from unsharded run", shards)
		}
		if gc != refCSV {
			t.Fatalf("shards=%d: merged CSV differs from unsharded run", shards)
		}
	}
}

// TestDecodeJSONRoundTrip is the merge-subcommand contract: encoding a
// result set, decoding it back and re-encoding must be byte-identical —
// including params typing, record field order, non-finite floats and
// captured cell errors.
func TestDecodeJSONRoundTrip(t *testing.T) {
	exps := toyExperiments()
	exps = append(exps,
		Experiment{Name: "toy-panic", Run: func(p Params) []Record { panic("decoded too") }},
		// A +Inf norm (the max-norm selector) encodes as the string "inf"
		// in params and must round-trip byte-identically.
		Experiment{
			Name: "toy-inf-norm",
			Space: func(quick bool) Space {
				return Space{Axes: []Axis{Floats("norm", 2, math.Inf(1))}}
			},
			Run: func(p Params) []Record { return []Record{R("norm_back", p.Float("norm"))} },
		})
	ref, err := Run(exps, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := encodeBoth(t, ref)
	decoded, err := DecodeJSON(strings.NewReader(refJSON))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, gotCSV := encodeBoth(t, decoded)
	if gotJSON != refJSON {
		t.Fatal("decode/encode round trip changed the JSON bytes")
	}
	if gotCSV != refCSV {
		t.Fatal("decode/encode round trip changed the CSV bytes")
	}
}

// TestDecodeMergeShards: decoding every shard's encoded output and
// merging reproduces the unsharded encoding byte-for-byte — the full
// file-level merge workflow, in memory.
func TestDecodeMergeShards(t *testing.T) {
	exps := toyExperiments()
	ref, err := Run(exps, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := encodeBoth(t, ref)
	for _, shards := range []int{2, 4} {
		var sets []*ResultSet
		for shard := 0; shard < shards; shard++ {
			part, err := Run(exps, Config{Workers: 3, Shards: shards, Shard: shard})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := part.EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, decoded)
		}
		gotJSON, gotCSV := encodeBoth(t, mustMerge(t, sets...))
		if gotJSON != refJSON {
			t.Fatalf("shards=%d: decoded merge JSON differs from unsharded run", shards)
		}
		if gotCSV != refCSV {
			t.Fatalf("shards=%d: decoded merge CSV differs from unsharded run", shards)
		}
	}
}

// TestDecodeUnknownParamRoundTrip: a params object with axis names this
// binary has never registered must round-trip byte-identically,
// preserving key order — the "shards from a newer binary" forward
// compatibility that the old fixed-key decoder silently destroyed.
func TestDecodeUnknownParamRoundTrip(t *testing.T) {
	in := `{
  "cells": [
    {"seq": 0, "experiment": "future", "cell": 0, "params": {"zeta": "x", "alpha": 1.5, "moves": 7, "norm": "inf"}, "records": [{"v": 1}]}
  ]
}
`
	rs, err := DecodeJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rs.EncodeJSON(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Fatalf("unknown params did not round-trip:\n%s\nvs\n%s", out.String(), in)
	}
	p := rs.Cells[0].Cell
	if got := p.axisNames(); strings.Join(got, ",") != "zeta,alpha,moves,norm" {
		t.Fatalf("axis order not preserved: %v", got)
	}
	if p.Str("zeta") != "x" || p.Float("alpha") != 1.5 || p.Int("moves") != 7 {
		t.Fatalf("typed accessors failed on decoded cell: %+v", p.Values)
	}
	if !math.IsInf(p.Float("norm"), 1) {
		t.Fatalf("Float on encoded inf spelling = %v, want +Inf", p.Float("norm"))
	}
}

// TestMergeDisagreementFails: Merge must refuse, not silently dedupe,
// when the same sequence number carries different params (shards of
// different runs/binaries), and when one experiment's cells disagree on
// their axis set.
func TestMergeDisagreementFails(t *testing.T) {
	cell := func(seq int, exp string, vals ...AxisValue) CellResult {
		return CellResult{Seq: seq, Experiment: exp, Cell: Params{Values: vals}}
	}
	a := &ResultSet{Cells: []CellResult{cell(0, "e", AxisValue{"alpha", 1.0})}}
	b := &ResultSet{Cells: []CellResult{cell(0, "e", AxisValue{"alpha", 2.0})}}
	if _, err := Merge(a, b); err == nil {
		t.Fatal("merge of same-seq cells with differing params should fail")
	}
	bExtra := &ResultSet{Cells: []CellResult{cell(0, "e", AxisValue{"alpha", 1.0}, AxisValue{"sched", "rr"})}}
	if _, err := Merge(a, bExtra); err == nil {
		t.Fatal("merge of same-seq cells with extra axes should fail")
	}
	// Distinct seqs of one experiment with differing axis sets: newer
	// binary added an axis.
	mixed := &ResultSet{Cells: []CellResult{
		cell(0, "e", AxisValue{"alpha", 1.0}),
		cell(1, "e", AxisValue{"alpha", 1.0}, AxisValue{"sched", "rr"}),
	}}
	if _, err := Merge(mixed); err == nil {
		t.Fatal("merge of one experiment with differing axis sets should fail")
	}
	// Same params but a changed result payload: a newer binary's bugfix
	// altered a metric — still shards of different runs, still refused.
	r1 := &ResultSet{Cells: []CellResult{{Seq: 0, Experiment: "e",
		Records: []Record{R("v", 1.5)}}}}
	r2 := &ResultSet{Cells: []CellResult{{Seq: 0, Experiment: "e",
		Records: []Record{R("v", 1.25)}}}}
	if _, err := Merge(r1, r2); err == nil {
		t.Fatal("merge of same-seq cells with differing records should fail")
	}
	// Identical duplicates (overlapping shard files) still dedupe fine,
	// NaN-valued axes included (compared via encoding, not ==).
	nan := &ResultSet{Cells: []CellResult{cell(0, "e", AxisValue{"alpha", math.NaN()})}}
	nan2 := &ResultSet{Cells: []CellResult{cell(0, "e", AxisValue{"alpha", math.NaN()})}}
	got, err := Merge(nan, nan2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 1 {
		t.Fatalf("identical duplicates should dedupe: %d cells", len(got.Cells))
	}
}

// TestDecodeJSONNegativeZero: -0 is a valid float literal that parses as
// integer 0; it must stay a float so the round trip re-encodes "-0".
func TestDecodeJSONNegativeZero(t *testing.T) {
	rs := &ResultSet{Cells: []CellResult{{
		Experiment: "e",
		Records:    []Record{R("z", math.Copysign(0, -1))},
	}}}
	var buf bytes.Buffer
	if err := rs.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"z": -0`) {
		t.Fatalf("encoder did not produce -0:\n%s", buf.String())
	}
	ref := buf.String()
	decoded, err := DecodeJSON(strings.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := decoded.EncodeJSON(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != ref {
		t.Fatalf("negative zero lost in round trip:\n%s\nvs\n%s", again.String(), ref)
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"[]",
		`{"cells": [{"seq": "x"}]}`,
		`{"cells": [{"params": {"bogus": [1]}}]}`,
		`{"cells": [{"records": [{"k": [1,2]}]}]}`,
		// Concatenated result sets must be rejected, not silently
		// truncated to the first one.
		`{"cells": []}` + "\n" + `{"cells": []}`,
	} {
		if _, err := DecodeJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("DecodeJSON(%q) should fail", bad)
		}
	}
	// Unknown top-level and cell-level keys are skipped for forward
	// compatibility.
	ok := `{"meta": {"x": [1, {"y": 2}]}, "cells": [{"seq": 3, "experiment": "e", "cell": 0, "future": [1], "records": []}]}`
	rs, err := DecodeJSON(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("forward-compatible decode failed: %v", err)
	}
	if len(rs.Cells) != 1 || rs.Cells[0].Seq != 3 || rs.Cells[0].Experiment != "e" {
		t.Fatalf("decoded cells wrong: %+v", rs.Cells)
	}
}

func TestSpaceExpansion(t *testing.T) {
	sp := Space{Axes: []Axis{Floats("alpha", 1, 2), Int64s("seed", Seq(3)...)}}
	cells := sp.Cells()
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	// Alpha is outer, seeds inner; indices are consecutive.
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		wantAlpha := []float64{1, 1, 1, 2, 2, 2}[i]
		wantSeed := int64(i % 3)
		if c.Float("alpha") != wantAlpha || c.Seed() != wantSeed {
			t.Fatalf("cell %d = (alpha %v, seed %d), want (%v, %d)",
				i, c.Float("alpha"), c.Seed(), wantAlpha, wantSeed)
		}
		if !c.Has("alpha") || !c.Has("seed") || c.Has("n") || c.Has("host") {
			t.Fatalf("cell %d has wrong axes %v", i, c.axisNames())
		}
	}
	if n := len((Space{}).Cells()); n != 1 {
		t.Fatalf("empty space expands to %d cells, want 1", n)
	}
	if len((Space{}).Cells()[0].Values) != 0 {
		t.Fatal("empty space cell should carry no axes")
	}
	mustPanic(t, func() { Space{Axes: []Axis{Floats("", 1)}}.Cells() })
	mustPanic(t, func() { Space{Axes: []Axis{Ints("n", 1), Ints("n", 2)}}.Cells() })
	mustPanic(t, func() { Space{Axes: []Axis{Ints("n")}}.Cells() })
}

func TestParamsAccessors(t *testing.T) {
	p := Params{Experiment: "e", Values: []AxisValue{
		{"alpha", 1.5}, {"n", 8}, {"seed", int64(3)}, {"sched", "rr"},
	}}
	if p.Float("alpha") != 1.5 || p.Int("n") != 8 || p.Seed() != 3 || p.Str("sched") != "rr" {
		t.Fatalf("accessors wrong: %+v", p.Values)
	}
	// Numeric coercions (decoded cells carry int for integer literals).
	if p.Float("n") != 8 || p.Int64("n") != 8 || p.Int("seed") != 3 {
		t.Fatal("numeric coercion failed")
	}
	if v, ok := p.Lookup("alpha"); !ok || v != 1.5 {
		t.Fatalf("Lookup(alpha) = %v, %v", v, ok)
	}
	if _, ok := p.Lookup("zz"); ok {
		t.Fatal("Lookup of missing axis should fail")
	}
	mustPanic(t, func() { p.Float("missing") })
	mustPanic(t, func() { p.Int("sched") })
	mustPanic(t, func() { p.Str("alpha") })
	// No seed axis: Seed is 0, and the RNG still varies by index.
	q := Params{Experiment: "e", Index: 1}
	if q.Seed() != 0 {
		t.Fatalf("Seed() without axis = %d, want 0", q.Seed())
	}
	if q.RNG().Int63() == (Params{Experiment: "e", Index: 2}).RNG().Int63() {
		t.Fatal("RNG should differ across cell indices")
	}
}

func TestRegistrySelect(t *testing.T) {
	for _, e := range toyExperiments() {
		Register(e)
	}
	defer func() { registry = nil }()
	if _, ok := Lookup("toy-grid"); !ok {
		t.Fatal("Lookup failed for registered experiment")
	}
	byTag, err := Select("toy")
	if err != nil {
		t.Fatal(err)
	}
	if len(byTag) != 2 || byTag[0].Name != "toy-grid" || byTag[1].Name != "toy-trials" {
		t.Fatalf("tag selection wrong: %v", names(byTag))
	}
	mixed, err := Select("scalar,toy-trials,toy-trials")
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 2 || mixed[0].Name != "toy-trials" || mixed[1].Name != "toy-scalar" {
		t.Fatalf("mixed selection wrong (want registration order, deduped): %v", names(mixed))
	}
	if _, err := Select("no-such-thing"); err == nil {
		t.Fatal("unknown selector should fail")
	}
	all, err := Select("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("Select(all) = %v, %v", names(all), err)
	}
	// An exact name match must shadow a tag of the same name.
	Register(Experiment{Name: "shadow", Tags: []string{"toy-scalar"},
		Run: func(p Params) []Record { return nil }})
	shadowed, err := Select("toy-scalar")
	if err != nil {
		t.Fatal(err)
	}
	if len(shadowed) != 1 || shadowed[0].Name != "toy-scalar" {
		t.Fatalf("name should take precedence over same-named tag: %v", names(shadowed))
	}
}

func names(exps []Experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.Name
	}
	return out
}

func TestCellPanicIsCaptured(t *testing.T) {
	exps := []Experiment{
		{Name: "boom", Run: func(p Params) []Record { panic("kaput") }},
		{Name: "fine", Run: func(p Params) []Record { return []Record{R("x", 1)} }},
	}
	rs, err := Run(exps, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cells[0].Err == "" || !strings.Contains(rs.Cells[0].Err, "kaput") {
		t.Fatalf("panic not captured: %+v", rs.Cells[0])
	}
	if rs.Cells[1].Err != "" || len(rs.Cells[1].Records) != 1 {
		t.Fatalf("healthy cell affected: %+v", rs.Cells[1])
	}
	if rs.FirstErr() == nil {
		t.Fatal("FirstErr should surface the panic")
	}
}

func TestEncodeNonFiniteAndEscaping(t *testing.T) {
	rs := &ResultSet{Cells: []CellResult{{
		Seq: 0, Experiment: `quo"ted`,
		Records: []Record{R("pos", math.Inf(1), "neg", math.Inf(-1), "text", "a,b\nc")},
	}}}
	j, c := encodeBoth(t, rs)
	for _, want := range []string{`"inf"`, `"-inf"`, `"quo\"ted"`} {
		if !strings.Contains(j, want) {
			t.Fatalf("JSON missing %s:\n%s", want, j)
		}
	}
	if !strings.Contains(c, `"a,b`) {
		t.Fatalf("CSV did not escape the comma/newline value:\n%s", c)
	}
}

func TestRenderText(t *testing.T) {
	exps := toyExperiments()
	rs, err := Run(exps, Config{Quick: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderText(&buf, rs)
	out := buf.String()
	for _, want := range []string{"toy-grid", "toy full grid", "host", "alpha", "value", "answer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, out)
		}
	}
}

// TestWideTables: wide tables carry axis columns then schema columns,
// one row per record; missing keys leave empty cells, off-schema keys
// are dropped, and decoded sets regain their schemas via AttachMeta.
func TestWideTables(t *testing.T) {
	exps := []Experiment{
		{
			Name: "wide-toy",
			Space: func(quick bool) Space {
				return Space{Axes: []Axis{Strings("sched", "rr", "rand"), Ints("n", 2)}}
			},
			Schema: []string{"ratio", "extra"},
			Run: func(p Params) []Record {
				if p.Str("sched") == "rr" {
					// No "extra" key: its column must come out empty.
					return []Record{R("ratio", 1.25, "dropped", true)}
				}
				return []Record{R("ratio", 2, "extra", "x")}
			},
		},
		{
			// No declared schema: columns derive from record keys in
			// first-appearance order.
			Name: "wide-derived",
			Run:  func(p Params) []Record { return []Record{R("b", 1, "a", 2)} },
		},
	}
	rs, err := Run(exps, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wides := rs.WideTables()
	if len(wides) != 2 {
		t.Fatalf("got %d wide tables, want 2", len(wides))
	}
	var buf bytes.Buffer
	if err := wides[0].Table.EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "sched,n,ratio,extra\nrr,2,1.25,\nrand,2,2,x\n"
	if buf.String() != want {
		t.Fatalf("wide CSV:\n%q\nwant\n%q", buf.String(), want)
	}
	buf.Reset()
	if err := wides[1].Table.EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "b,a\n1,2\n" {
		t.Fatalf("derived wide CSV: %q", buf.String())
	}
	// Round-trip through the interchange format: schemas are rendering
	// metadata and vanish, AttachMeta restores them from the registry.
	var j bytes.Buffer
	if err := rs.EncodeJSON(&j); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSON(&j)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		Register(e)
	}
	defer func() { registry = nil }()
	decoded.AttachMeta()
	buf.Reset()
	if err := decoded.WideTables()[0].Table.EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("decoded+attached wide CSV:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestRecordHelpers(t *testing.T) {
	r := R("a", 1, "b", "x")
	if v, ok := r.Get("b"); !ok || v != "x" {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	if _, ok := r.Get("zz"); ok {
		t.Fatal("Get of missing key should fail")
	}
	mustPanic(t, func() { R("odd") })
	mustPanic(t, func() { R(1, 2) })
	mustPanic(t, func() { Register(Experiment{Name: ""}) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// TestSeededRNGIndependence: the cell RNG must depend on experiment,
// index and seed only.
func TestSeededRNGIndependence(t *testing.T) {
	p1 := Params{Experiment: "e", Index: 3, Values: []AxisValue{{"seed", int64(9)}}}
	p2 := Params{Experiment: "e", Index: 3, Values: []AxisValue{
		{"host", "other"}, {"alpha", 5.0}, {"seed", int64(9)},
	}}
	if p1.RNG().Int63() != p2.RNG().Int63() {
		t.Fatal("RNG should not depend on non-identity axes")
	}
	p3 := Params{Experiment: "e", Index: 4, Values: []AxisValue{{"seed", int64(9)}}}
	if p1.RNG().Int63() == p3.RNG().Int63() {
		t.Fatal("RNG should differ across cell indices")
	}
}
