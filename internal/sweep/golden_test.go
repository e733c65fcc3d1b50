package sweep

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current encoder output")

// goldenExperiments exercises every axis type in one space — string,
// float (finite and +Inf), int and int64 seeds — plus a scalar
// experiment, with fully deterministic cell outputs covering the
// encoders' tricky values (non-finite floats, negative zero, quoting).
func goldenExperiments() []Experiment {
	return []Experiment{
		{
			Name: "golden-axes", Title: "golden: all axis types",
			Space: func(quick bool) Space {
				return Space{Axes: []Axis{
					Strings("policy", "greedy", "exact"),
					Floats("norm", 1, math.Inf(1)),
					Ints("n", 4),
					Int64s("seed", Seq(2)...),
				}}
			},
			Schema: []string{"score", "tag", "half"},
			Run: func(p Params) []Record {
				score := float64(p.Int("n")) * (1 + float64(p.Seed()))
				if p.Str("policy") == "exact" {
					score = -score
				}
				if math.IsInf(p.Float("norm"), 1) {
					score = math.Inf(1)
				}
				rec := R("score", score, "tag", p.Str("policy")+`/q"`, "half", 0.5)
				if p.Seed() == 1 {
					// Off-schema key (dropped from wide CSV) and a missing
					// "half" column (empty wide cell).
					rec = R("score", score, "tag", "short", "ragged", true)
				}
				return []Record{rec}
			},
		},
		{
			Name: "golden-scalar", Title: "golden: scalar cell",
			Run: func(p Params) []Record {
				return []Record{R("answer", 42, "neg_zero", math.Copysign(0, -1))}
			},
		},
	}
}

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sweep -run TestGolden -update` after an intentional format change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden bytes (format change?):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenEncodings pins the interchange JSON, long CSV and wide CSV
// of the all-axis-types corpus byte-for-byte against testdata, and
// requires the JSON to survive a decode/re-encode round trip unchanged
// (so stored shard files keep merging under this exact format).
func TestGoldenEncodings(t *testing.T) {
	rs, err := Run(goldenExperiments(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var j, c bytes.Buffer
	if err := rs.EncodeJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := rs.EncodeCSV(&c); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden.json", j.Bytes())
	goldenCompare(t, "golden_long.csv", c.Bytes())
	for _, w := range rs.WideTables() {
		var buf bytes.Buffer
		if err := w.Table.EncodeCSV(&buf); err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, "golden_wide_"+w.Experiment+".csv", buf.Bytes())
	}
	decoded, err := DecodeJSON(bytes.NewReader(j.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := decoded.EncodeJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), j.Bytes()) {
		t.Fatal("golden JSON did not survive decode/re-encode")
	}
}
