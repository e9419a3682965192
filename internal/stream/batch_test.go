package stream_test

// Batched hot-path tests at the transport level: the vectorized engine
// (Config.MaxBatch > 1) must be observably indistinguishable from the
// per-element engine — identical per-edge logical data/dummy counts and
// an identical sink (seq, payload) sequence — and must allocate O(1) per
// batch, not per message, on the full-mask fast path.

import (
	"context"
	"testing"
	"time"

	"streamdag/internal/cs4"
	"streamdag/internal/graph"
	"streamdag/internal/proto"
	"streamdag/internal/stream"
	"streamdag/internal/workload"
)

// engineRun drives one session over a fresh engine and returns its stats
// plus the exact sink delivery sequence.
func engineRun(t *testing.T, g *graph.Graph, kernels map[graph.NodeID]stream.Kernel, cfg stream.Config, inputs uint64) (*stream.Stats, []stream.Message) {
	t.Helper()
	eng, err := stream.NewEngine(g, kernels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var seen []stream.Message
	sink := func(_ context.Context, seq uint64, payload any) error {
		seen = append(seen, stream.Message{Seq: seq, Kind: stream.Data, Payload: payload})
		return nil
	}
	ses, err := eng.Open(stream.SessionConfig{ID: 1, Source: stream.SyntheticSource(inputs), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return stats, seen
}

// TestEngineBatchedParity pins the batched engine bit-identical to the
// per-element one on a filtering workload that exercises the run-breaking
// fallback (dropped edges, dummy traffic, cascade).
func TestEngineBatchedParity(t *testing.T) {
	g := workload.Fig2Triangle(2)
	d, err := cs4.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.Intervals(cs4.Propagation)
	if err != nil {
		t.Fatal(err)
	}
	drop := workload.DropEdge(edgeByNames(t, g, "A", "C"))
	const inputs = 800
	base := stream.Config{Algorithm: cs4.Propagation, Intervals: iv, WatchdogTimeout: 5 * time.Second}

	refStats, refSeen := engineRun(t, g, filterKernels(g, drop), base, inputs)
	for _, batch := range []int{2, 16, 64} {
		cfg := base
		cfg.MaxBatch = batch
		stats, seen := engineRun(t, g, filterKernels(g, drop), cfg, inputs)
		if stats.SinkData != refStats.SinkData {
			t.Errorf("batch %d: SinkData = %d, want %d", batch, stats.SinkData, refStats.SinkData)
		}
		for e, want := range refStats.Data {
			if stats.Data[e] != want {
				t.Errorf("batch %d: edge %d data = %d, want %d", batch, e, stats.Data[e], want)
			}
		}
		for e, want := range refStats.Dummies {
			if stats.Dummies[e] != want {
				t.Errorf("batch %d: edge %d dummies = %d, want %d", batch, e, stats.Dummies[e], want)
			}
		}
		if len(seen) != len(refSeen) {
			t.Fatalf("batch %d: %d sink deliveries, want %d", batch, len(seen), len(refSeen))
		}
		for i := range seen {
			if seen[i] != refSeen[i] {
				t.Fatalf("batch %d: sink[%d] = %+v, want %+v", batch, i, seen[i], refSeen[i])
			}
		}
	}
}

// TestEngineNodeBatchOverride pins that NodeBatch overrides MaxBatch per
// node without changing the logical stream.
func TestEngineNodeBatchOverride(t *testing.T) {
	g := workload.Pipeline(4, 4)
	base := stream.Config{WatchdogTimeout: 5 * time.Second}
	const inputs = 500
	refStats, refSeen := engineRun(t, g, nil, base, inputs)

	cfg := base
	cfg.MaxBatch = 32
	cfg.NodeBatch = map[graph.NodeID]int{g.MustNode("s1"): 1, g.MustNode("s2"): 8}
	stats, seen := engineRun(t, g, nil, cfg, inputs)
	if stats.SinkData != refStats.SinkData {
		t.Fatalf("SinkData = %d, want %d", stats.SinkData, refStats.SinkData)
	}
	for e, want := range refStats.Data {
		if stats.Data[e] != want {
			t.Errorf("edge %d data = %d, want %d", e, stats.Data[e], want)
		}
	}
	if len(seen) != len(refSeen) {
		t.Fatalf("%d sink deliveries, want %d", len(seen), len(refSeen))
	}
	for i := range seen {
		if seen[i] != refSeen[i] {
			t.Fatalf("sink[%d] = %+v, want %+v", i, seen[i], refSeen[i])
		}
	}
}

// reuseKernel forwards its input on every out-edge through a reused map,
// so the kernel itself allocates nothing per element — what the batched
// hot path's O(1)-allocs-per-batch guarantee is measured against.
type reuseKernel struct {
	outs map[int]any
	n    int
}

func (k *reuseKernel) Process(_ uint64, in []stream.Input) map[int]any {
	var p any
	if len(in) > 0 {
		p = in[0].Payload
	}
	for i := 0; i < k.n; i++ {
		k.outs[i] = p
	}
	return k.outs
}

func benchEngineBatch(b *testing.B, batch int) {
	g := workload.Pipeline(3, 64)
	kernels := make(map[graph.NodeID]stream.Kernel, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		kernels[id] = &reuseKernel{outs: make(map[int]any, g.OutDegree(id)), n: g.OutDegree(id)}
	}
	eng, err := stream.NewEngine(g, kernels, stream.Config{MaxBatch: batch, WatchdogTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	// Small-int payloads (< 256) box without allocating, so every
	// measured allocation belongs to the transport, not fmt/boxing.
	src := func(n uint64) stream.SourceFunc {
		var next uint64
		return func(context.Context) (any, bool, error) {
			if next >= n {
				return nil, false, nil
			}
			v := next % 200
			next++
			return v, true, nil
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	const perOp = 4096
	for i := 0; i < b.N; i++ {
		ses, err := eng.Open(stream.SessionConfig{ID: proto.SessionID(i + 1), Source: src(perOp)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ses.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBatch1(b *testing.B)  { benchEngineBatch(b, 1) }
func BenchmarkEngineBatch64(b *testing.B) { benchEngineBatch(b, 64) }

// TestBatchedAllocRegression is the allocation gate: with 4096 messages
// per session over a 3-node chain, the batched hot path must allocate
// O(1) per batch and the per-element path O(1) per session — both far
// below one allocation per message.
func TestBatchedAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	res64 := testing.Benchmark(BenchmarkEngineBatch64)
	res1 := testing.Benchmark(BenchmarkEngineBatch1)
	const perOp = 4096.0
	per64 := float64(res64.AllocsPerOp()) / perOp
	per1 := float64(res1.AllocsPerOp()) / perOp
	t.Logf("allocs per message: batch64 = %.3f, batch1 = %.3f", per64, per1)
	// The batched path allocates per span; the per-element path reuses
	// its ring heads and kernel buffers, so what it allocates is the
	// session's own set-up (~56 allocations, 0.014 per message here).
	if per64 > 0.75 {
		t.Errorf("batch-64 hot path allocates %.3f per message; want O(1) per batch (< 0.75)", per64)
	}
	if per1 > 0.05 {
		t.Errorf("batch-1 hot path allocates %.3f per message; want O(1) per session (< 0.05)", per1)
	}
}
