package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"gncg/internal/sweep"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks. xs is not modified; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPerMille is the ladder of tail percentiles, in per-mille, that a
// per-call timing may report beyond its median.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// tailLevel returns the highest percentile of the ladder (as a fraction)
// that has at least ten of n samples beyond it, or 0 when even the
// median has fewer. Integer arithmetic keeps the rule exact at the
// boundaries (1000 samples admit p99, 999 do not).
func tailLevel(n int) float64 {
	for _, pm := range tailPerMille {
		atOrBelow := (n*pm + 999) / 1000
		if n-atOrBelow >= 10 {
			return float64(pm) / 1000
		}
	}
	return 0
}

// p99 reports the 99th percentile of xs when it has at least ten
// samples beyond it, and otherwise the highest percentile that does —
// the per-call tail rule of the benchmark's per-layer metrics.
func p99(xs []float64) float64 {
	return quantile(xs, math.Min(0.99, tailLevel(len(xs))))
}

// span is one timed call the benchmark made into a layer. Parent indexes
// the enclosing span in the same trace, -1 at the root.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; spans nest by begin/end order.
type tracer struct {
	epoch time.Time
	spans []span
	cur   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Start: time.Since(t.epoch)})
	t.cur = id
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.epoch)
	t.cur = t.spans[id].Parent
}

// durations returns the durations, in microseconds, of every span named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Microsecond))
		}
	}
	return out
}

// selfSeconds sums, over every span named name, its duration minus the
// part of its interval covered by its child spans (overlapping children
// count once).
func selfSeconds(spans []span, name string) float64 {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	var total time.Duration
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		total += s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return total.Seconds()
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	iv = append([][2]time.Duration(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	reach := lo
	for _, in := range iv {
		s, e := max(in[0], reach), min(in[1], hi)
		if e > s {
			sum += e - s
			reach = e
		}
	}
	return sum
}

// journalStats is the scheduling telemetry of one finished job, read
// from the done and lease lines of its journal.
type journalStats struct {
	Cells    [][]byte // canonical bytes of each done cell, in journal order
	Leases   int
	LeaseMS  []float64 // hold time of each lease that finished cells
	Steals   int
	Expiries int
}

// parseJournal reads a job journal. Consecutive done lines from the same
// shard with the same lease_ms were written by one report and count as
// one finishing lease.
func parseJournal(data []byte) (journalStats, error) {
	var st journalStats
	lastShard, lastMS := "", int64(-1)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		var l struct {
			Type    string          `json:"type"`
			Shard   string          `json:"shard"`
			LeaseMS int64           `json:"lease_ms"`
			Steals  int             `json:"steals"`
			Cell    json.RawMessage `json:"cell"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return st, fmt.Errorf("journal line %d: %w", line, err)
		}
		switch l.Type {
		case "lease":
			st.Leases++
		case "expire":
			st.Expiries++
		case "done":
			st.Cells = append(st.Cells, append([]byte(nil), l.Cell...))
			st.Steals += l.Steals
			if l.Shard != lastShard || l.LeaseMS != lastMS {
				st.LeaseMS = append(st.LeaseMS, float64(l.LeaseMS))
			}
			lastShard, lastMS = l.Shard, l.LeaseMS
			continue
		}
		lastShard, lastMS = "", -1
	}
	return st, sc.Err()
}

// cellKey names a sweep cell independently of its sequence number, which
// shifts when the selection leaves experiments out.
type cellKey struct {
	Experiment string
	Index      int
}

// unseqCell decodes a canonical cell and re-encodes it with its sequence
// number zeroed, so cells from differently sized selections compare
// byte for byte.
func unseqCell(raw []byte) (cellKey, []byte, error) {
	c, err := sweep.DecodeCellJSON(raw)
	if err != nil {
		return cellKey{}, nil, err
	}
	c.Seq = 0
	return cellKey{c.Experiment, c.Cell.Index}, sweep.CellJSON(c), nil
}

// compareCells checks every got cell against the golden cell with the
// same (experiment, cell) and returns one problem per mismatch, missing
// golden cell or duplicate.
func compareCells(golden map[cellKey][]byte, got [][]byte) []string {
	var problems []string
	seen := make(map[cellKey]bool)
	for _, raw := range got {
		k, b, err := unseqCell(raw)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		switch want, ok := golden[k]; {
		case seen[k]:
			problems = append(problems, fmt.Sprintf("%s cell %d reported twice", k.Experiment, k.Index))
		case !ok:
			problems = append(problems, fmt.Sprintf("%s cell %d has no golden cell", k.Experiment, k.Index))
		case !bytes.Equal(want, b):
			problems = append(problems, fmt.Sprintf("%s cell %d differs from golden:\n  want %s\n  got  %s", k.Experiment, k.Index, want, b))
		}
		seen[k] = true
	}
	return problems
}

// fingerprint is the deterministic outcome of one equilibrium cell.
// Floats are compared by their bits.
type fingerprint struct {
	Outcome     string  `json:"outcome"`
	Rounds      int     `json:"rounds"`
	Moves       int     `json:"moves"`
	SocialCost  float64 `json:"social_cost"`
	OptLB       float64 `json:"opt_lb"`
	Stable      bool    `json:"stable"`
	CertSkipped int     `json:"cert_skipped"`
	Scanned     int     `json:"scanned"`
}

// diffFingerprint names every field on which a and b disagree.
func diffFingerprint(a, b fingerprint) []string {
	var d []string
	add := func(name string, x, y any) { d = append(d, fmt.Sprintf("%s: %v != %v", name, x, y)) }
	if a.Outcome != b.Outcome {
		add("outcome", a.Outcome, b.Outcome)
	}
	if a.Rounds != b.Rounds {
		add("rounds", a.Rounds, b.Rounds)
	}
	if a.Moves != b.Moves {
		add("moves", a.Moves, b.Moves)
	}
	if math.Float64bits(a.SocialCost) != math.Float64bits(b.SocialCost) {
		add("social_cost", fmtFloat(a.SocialCost), fmtFloat(b.SocialCost))
	}
	if math.Float64bits(a.OptLB) != math.Float64bits(b.OptLB) {
		add("opt_lb", fmtFloat(a.OptLB), fmtFloat(b.OptLB))
	}
	if a.Stable != b.Stable {
		add("stable", a.Stable, b.Stable)
	}
	if a.CertSkipped != b.CertSkipped {
		add("cert_skipped", a.CertSkipped, b.CertSkipped)
	}
	if a.Scanned != b.Scanned {
		add("scanned", a.Scanned, b.Scanned)
	}
	return d
}

// diffRecord compares a computed record field by field against a golden
// one: same keys in the same order, and values that render identically
// (integers as integers, floats in their shortest round-trip form).
func diffRecord(want, got sweep.Record) []string {
	var d []string
	if len(want.Fields) != len(got.Fields) {
		d = append(d, fmt.Sprintf("record has %d fields, golden %d", len(got.Fields), len(want.Fields)))
	}
	for i := 0; i < len(want.Fields) && i < len(got.Fields); i++ {
		w, g := want.Fields[i], got.Fields[i]
		if w.Key != g.Key {
			d = append(d, fmt.Sprintf("field %d: key %q, golden %q", i, g.Key, w.Key))
			continue
		}
		if ws, gs := scalarString(w.Value), scalarString(g.Value); ws != gs {
			d = append(d, fmt.Sprintf("%s: %s, golden %s", w.Key, gs, ws))
		}
	}
	return d
}

func scalarString(v any) string {
	switch x := v.(type) {
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return fmtFloat(x)
	case string:
		return strconv.Quote(x)
	default:
		return fmt.Sprint(x)
	}
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
