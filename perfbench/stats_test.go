package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"streamdag"
)

func TestTailPercentileSampleCountRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: the rule must sort a copy
	}
	got := tailPercentile(xs, 10)
	if !got.OK || got.Value != 90 || got.Percentile != 90 || got.N != 100 {
		t.Fatalf("tail of 1..100 = %+v, want p90 = 90 over 100", got)
	}
	if xs[0] != 100 {
		t.Fatal("tailPercentile reordered its input")
	}
	// 2000 samples: rank 1990 is the p99.5 and still has 10 beyond it.
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := tailPercentile(big, 10); got.Value != 1990 || got.Percentile != 99.5 {
		t.Fatalf("tail of 1..2000 = %+v, want p99.5 = 1990", got)
	}
	if got := tailPercentile(big[:11], 10); !got.OK || got.Value != 1 {
		t.Fatalf("tail of 11 samples = %+v, want the smallest", got)
	}
	if got := tailPercentile(big[:10], 10); got.OK {
		t.Fatalf("tail of 10 samples = %+v, want none", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.99); q != 5 {
		t.Fatalf("p99 = %v", q)
	}
	if q := quantile(xs, 0.4); q != 2 {
		t.Fatalf("p40 = %v", q)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{at(10, 20), at(50, 60)}, 80},
		// Overlapping children count once; children sticking out of the
		// parent are clipped to it.
		{"overlap and clip", []interval{at(10, 30), at(20, 40), at(50, 60), at(90, 120), at(-5, 5)}, 45},
		{"nested", []interval{at(10, 80), at(20, 30)}, 30},
		{"covering", []interval{at(-10, 200)}, 0},
		{"outside", []interval{at(200, 300)}, 100},
	}
	for _, c := range cases {
		got := selfTime(parent, c.children)
		if want := time.Duration(c.want) * time.Millisecond; got != want {
			t.Errorf("%s: self time %v, want %v", c.name, got, want)
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	decl := []declaredMetric{{"latency_ms", "ms"}, {"setup_s", "s"}}
	good := map[string]metric{"latency_ms": {1.5, "ms"}, "setup_s": {0.2, "s"}}
	if err := checkMetrics(decl, good); err != nil {
		t.Fatalf("good set rejected: %v", err)
	}
	bad := []struct {
		name string
		decl []declaredMetric
		got  map[string]metric
	}{
		{"missing", decl, map[string]metric{"latency_ms": {1, "ms"}}},
		{"undeclared", decl, map[string]metric{"latency_ms": {1, "ms"}, "setup_s": {1, "s"}, "extra": {1, "s"}}},
		{"unit", decl, map[string]metric{"latency_ms": {1, "s"}, "setup_s": {1, "s"}}},
		{"nan", decl, map[string]metric{"latency_ms": {math.NaN(), "ms"}, "setup_s": {1, "s"}}},
		{"name", []declaredMetric{{"_bad", "ms"}}, map[string]metric{"_bad": {1, "ms"}}},
		{"long name", []declaredMetric{{strings.Repeat("a", 65), "ms"}}, map[string]metric{strings.Repeat("a", 65): {1, "ms"}}},
		{"unit chars", []declaredMetric{{"x", "m s"}}, map[string]metric{"x": {1, "m s"}}},
		{"duplicate", []declaredMetric{{"x", "s"}, {"x", "s"}}, map[string]metric{"x": {1, "s"}}},
	}
	for _, c := range bad {
		if err := checkMetrics(c.decl, c.got); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestBenchmarkFileDeclaresEveryMetric pins BENCHMARK.json to the program:
// every declared name is well formed, and every per-edge metric the
// workloads produce is declared.
func TestBenchmarkFileDeclaresEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, set := range [][]declaredMetric{decl.EndToEnd, decl.PerLayer} {
		got := make(map[string]metric, len(set))
		for _, d := range set {
			got[d.Name] = metric{1, d.Unit}
		}
		if err := checkMetrics(set, got); err != nil {
			t.Fatal(err)
		}
	}
	declared := make(map[string]bool)
	for _, d := range decl.PerLayer {
		declared[d.Name] = true
	}
	for _, sp := range sortedSpecs() {
		if sp.edgeTag == "" {
			continue
		}
		for _, name := range edgeMetricNames(sp.edgeTag, sp.topo()) {
			if !declared["proto.dummy_per_in."+name] {
				t.Errorf("%s: per-edge metric %q not declared", sp.name, name)
			}
		}
	}
}

// TestWrappersKeepFastPaths checks that the traced run's wrappers expose
// the span interfaces exactly when the wrapped value does, so tracing
// never moves a session off its batched path.
func TestWrappersKeepFastPaths(t *testing.T) {
	r := &rim{}
	if _, ok := wrapSource(&seqSource{n: 1}, r).(streamdag.SpanSource); !ok {
		t.Error("wrapped SpanSource lost NextSpan")
	}
	plainSrc := streamdag.SourceFunc(func(context.Context) (any, bool, error) { return nil, false, nil })
	if _, ok := wrapSource(plainSrc, r).(streamdag.SpanSource); ok {
		t.Error("wrapped plain Source gained NextSpan")
	}
	if _, ok := wrapSink(newCheckSink(0, 0, nil), r).(streamdag.SpanSink); !ok {
		t.Error("wrapped SpanSink lost EmitSpan")
	}
	plainSink := streamdag.SinkFunc(func(context.Context, uint64, any) error { return nil })
	if _, ok := wrapSink(plainSink, r).(streamdag.SpanSink); ok {
		t.Error("wrapped plain Sink gained EmitSpan")
	}
	id := func(v any) any { return v }
	if _, ok := wrapKernel(streamdag.MapKernel(1, id), r).(streamdag.SpanKernel); !ok {
		t.Error("wrapped SpanKernel lost ProcessSpan")
	}
	fk := streamdag.KernelFunc(func(uint64, []streamdag.Input) map[int]any { return nil })
	if _, ok := wrapKernel(fk, r).(streamdag.SpanKernel); ok {
		t.Error("wrapped plain Kernel gained ProcessSpan")
	}

	out := make([]any, 2)
	k := wrapKernel(streamdag.MapKernel(1, id), r).(streamdag.SpanKernel)
	if n := k.ProcessSpan(0, []any{1, 2}, out); n != 2 || out[1] != 2 {
		t.Fatalf("wrapped ProcessSpan = %d %v", n, out)
	}
	if r.calls.Load() != 1 {
		t.Fatalf("rim counted %d calls, want 1", r.calls.Load())
	}
}

func TestCheckSink(t *testing.T) {
	ctx := context.Background()
	ok := newCheckSink(7, 3, []uint64{1, 4})
	_ = ok.EmitSpan(ctx, []uint64{1, 4}, []any{payloadFor(7, 3, 1), payloadFor(7, 3, 4)})
	if err := ok.verify(); err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	cases := map[string]func(s *checkSink){
		"out of order": func(s *checkSink) {
			_ = s.Emit(ctx, 4, payloadFor(7, 3, 4))
		},
		"wrong payload": func(s *checkSink) {
			_ = s.Emit(ctx, 1, payloadFor(7, 2, 1))
		},
		"missing": func(s *checkSink) {
			_ = s.Emit(ctx, 1, payloadFor(7, 3, 1))
		},
		"duplicate": func(s *checkSink) {
			_ = s.Emit(ctx, 1, payloadFor(7, 3, 1))
			_ = s.Emit(ctx, 1, payloadFor(7, 3, 1))
		},
	}
	for name, emit := range cases {
		s := newCheckSink(7, 3, []uint64{1, 4})
		emit(s)
		if s.verify() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
