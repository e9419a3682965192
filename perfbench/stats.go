package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(s) {
		r = len(s) - 1
	}
	return s[r]
}

// tail is the highest percentile a sample supports: the largest sample
// that still has at least minBeyond samples above it in sorted order.
type tail struct {
	Value      float64 // the sample at that rank
	Percentile float64 // its rank as a percentile, 100·(n-minBeyond)/n
	N          int     // sample count
	OK         bool    // false when n ≤ minBeyond: no rank qualifies
}

// tailPercentile applies the sample-count rule: with n samples sorted
// ascending, the sample at 1-based rank n-minBeyond is the highest one
// with minBeyond samples beyond it.
func tailPercentile(xs []float64, minBeyond int) tail {
	n := len(xs)
	if n <= minBeyond {
		return tail{N: n}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := n - minBeyond // 1-based rank
	return tail{Value: s[r-1], Percentile: 100 * float64(r) / float64(n), N: n, OK: true}
}

// interval is one closed-open time interval [Start, End).
type interval struct{ Start, End time.Time }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (concurrent calls) and may stick out of
// the parent; only their union clipped to the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.End.Sub(parent.Start)
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start.Before(clipped[j].Start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.End.Sub(cur.Start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return total - covered
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics verifies that got holds exactly the declared metric names,
// each well formed, with the declared unit and a finite value.
func checkMetrics(declared []declaredMetric, got map[string]metric) error {
	want := make(map[string]string, len(declared))
	for _, d := range declared {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is malformed", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %q: unit %q is malformed", d.Name, d.Unit)
		}
		if _, dup := want[d.Name]; dup {
			return fmt.Errorf("metric %q declared twice", d.Name)
		}
		want[d.Name] = d.Unit
	}
	for name, m := range got {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %q: unit %q, declared %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %q: value %v is not finite", name, m.Value)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			return fmt.Errorf("metric %q is declared but not measured", name)
		}
	}
	return nil
}
