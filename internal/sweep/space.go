package sweep

import "fmt"

// Axis is one named, typed dimension of a parameter Space: an ordered
// value list the space crosses with its other axes. Values are
// homogeneous — build axes with the typed constructors (Floats, Ints,
// Int64s, Strings) so every cell's accessor of the matching type
// succeeds. The zoo of supported value types is exactly what the
// deterministic encoders render token-exactly: string, float64, int and
// int64.
type Axis struct {
	Name   string
	Values []any
}

// Floats builds a float-valued axis (edge prices, norms, thresholds).
func Floats(name string, vs ...float64) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Ints builds an int-valued axis (instance sizes, ladder rungs).
func Ints(name string, vs ...int) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Int64s builds an int64-valued axis (by convention, RNG seeds).
func Int64s(name string, vs ...int64) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Strings builds a string-valued axis (host classes, schedulers,
// policies — categorical selectors of any kind).
func Strings(name string, vs ...string) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Seq returns [0, n) as int64 seeds: the common "n independent trials"
// seed dimension.
func Seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// Space is an open, typed parameter space: the cross product of its axes
// expands into cells. Axis order is part of the sharding contract — axis
// 0 varies slowest (outermost), the last axis fastest — so cell identity
// and shard assignment never depend on execution context. An entirely
// empty space expands into exactly one cell with no axes (the "scalar
// experiment" case).
type Space struct {
	Axes []Axis
}

// Cells expands the space in declaration order, assigning each cell its
// index in the enumeration. It panics on empty or duplicate axis names
// and on axes with no values: a declared axis must contribute to the
// product (spaces that shrink in quick mode shorten value lists, they do
// not empty them).
func (sp Space) Cells() []Params {
	total := 1
	seen := map[string]bool{}
	for _, a := range sp.Axes {
		if a.Name == "" {
			panic("sweep: axis with empty name")
		}
		if seen[a.Name] {
			panic(fmt.Sprintf("sweep: duplicate axis %q", a.Name))
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			panic(fmt.Sprintf("sweep: axis %q has no values", a.Name))
		}
		total *= len(a.Values)
	}
	cells := make([]Params, 0, total)
	idx := make([]int, len(sp.Axes))
	for c := 0; c < total; c++ {
		var vals []AxisValue
		if len(sp.Axes) > 0 {
			vals = make([]AxisValue, len(sp.Axes))
			for ai, a := range sp.Axes {
				vals[ai] = AxisValue{Axis: a.Name, Value: a.Values[idx[ai]]}
			}
		}
		cells = append(cells, Params{Index: c, Values: vals})
		for ai := len(sp.Axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(sp.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
	}
	return cells
}
