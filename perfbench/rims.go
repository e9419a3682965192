package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"streamdag"
)

// The user rims: the benchmark's own Source, Kernel and Sink, plus the
// wrappers the traced run puts around them.  Payloads are a pure function
// of (seed, session, seq), so every sink can check what it receives
// without keeping a copy of what was sent.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payloadFor is the payload the source emits at seq in session ses.
func payloadFor(seed, ses, seq uint64) uint64 {
	return splitmix64(splitmix64(seed^ses*0x9e3779b97f4a7c15) ^ seq)
}

// seqSource emits payloadFor(seed, ses, i) for i in [0, n).  It implements
// SpanSource, so the runtime may fill a whole grant window per call.
type seqSource struct {
	seed, ses, next, n uint64
}

func (s *seqSource) Next(context.Context) (any, bool, error) {
	if s.next >= s.n {
		return nil, false, nil
	}
	v := payloadFor(s.seed, s.ses, s.next)
	s.next++
	return v, true, nil
}

func (s *seqSource) NextSpan(_ context.Context, buf []any) (int, bool, error) {
	k := 0
	for ; k < len(buf) && s.next < s.n; k++ {
		buf[k] = payloadFor(s.seed, s.ses, s.next)
		s.next++
	}
	return k, s.next >= s.n, nil
}

// checkSink checks every emission as it arrives: sequence numbers must
// follow want exactly (ascending, exactly once) and each payload must be
// the one the source sent at that seq.  The first mismatch is kept and
// reported by verify; the stream itself is left to finish.
type checkSink struct {
	seed, ses uint64
	want      []uint64 // expected seqs in order
	got       int
	err       error
}

func newCheckSink(seed, ses uint64, want []uint64) *checkSink {
	return &checkSink{seed: seed, ses: ses, want: want}
}

func (s *checkSink) take(seq uint64, p any) {
	if s.err != nil {
		return
	}
	if s.got >= len(s.want) {
		s.err = fmt.Errorf("extra emission at seq %d after %d expected", seq, len(s.want))
		return
	}
	if want := s.want[s.got]; seq != want {
		s.err = fmt.Errorf("emission %d: seq %d, want %d", s.got, seq, want)
		return
	}
	if v, ok := p.(uint64); !ok || v != payloadFor(s.seed, s.ses, seq) {
		s.err = fmt.Errorf("seq %d: payload %v, want %d", seq, p, payloadFor(s.seed, s.ses, seq))
		return
	}
	s.got++
}

func (s *checkSink) Emit(_ context.Context, seq uint64, p any) error {
	s.take(seq, p)
	return nil
}

func (s *checkSink) EmitSpan(_ context.Context, seqs []uint64, pays []any) error {
	for i, seq := range seqs {
		s.take(seq, pays[i])
	}
	return nil
}

func (s *checkSink) verify() error {
	if s.err != nil {
		return s.err
	}
	if s.got != len(s.want) {
		return fmt.Errorf("sink saw %d emissions, want %d", s.got, len(s.want))
	}
	return nil
}

// rim aggregates one rim's calls: how many and their total wall time.
// Per-element spans would swamp the hot path, so the traced run keeps a
// count and a sum per (layer, session) instead.
type rim struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (r *rim) add(t0 time.Time) {
	r.ns.Add(int64(time.Since(t0)))
	r.calls.Add(1)
}

// timedSource times a Source; timedSpanSource also forwards NextSpan, so
// wrapping never takes the runtime off its bulk-ingestion path.
type timedSource struct {
	src streamdag.Source
	r   *rim
}

func (t timedSource) Next(ctx context.Context) (any, bool, error) {
	t0 := time.Now()
	p, ok, err := t.src.Next(ctx)
	t.r.add(t0)
	return p, ok, err
}

type timedSpanSource struct {
	timedSource
	ss streamdag.SpanSource
}

func (t timedSpanSource) NextSpan(ctx context.Context, buf []any) (int, bool, error) {
	t0 := time.Now()
	n, eof, err := t.ss.NextSpan(ctx, buf)
	t.r.add(t0)
	return n, eof, err
}

func wrapSource(s streamdag.Source, r *rim) streamdag.Source {
	if ss, ok := s.(streamdag.SpanSource); ok {
		return timedSpanSource{timedSource{s, r}, ss}
	}
	return timedSource{s, r}
}

// timedSink times a Sink; timedSpanSink also forwards EmitSpan.
type timedSink struct {
	snk streamdag.Sink
	r   *rim
}

func (t timedSink) Emit(ctx context.Context, seq uint64, p any) error {
	t0 := time.Now()
	err := t.snk.Emit(ctx, seq, p)
	t.r.add(t0)
	return err
}

type timedSpanSink struct {
	timedSink
	ss streamdag.SpanSink
}

func (t timedSpanSink) EmitSpan(ctx context.Context, seqs []uint64, pays []any) error {
	t0 := time.Now()
	err := t.ss.EmitSpan(ctx, seqs, pays)
	t.r.add(t0)
	return err
}

func wrapSink(s streamdag.Sink, r *rim) streamdag.Sink {
	if ss, ok := s.(streamdag.SpanSink); ok {
		return timedSpanSink{timedSink{s, r}, ss}
	}
	return timedSink{s, r}
}

// timedKernel times a Kernel; timedSpanKernel also forwards ProcessSpan.
// Kernels are shared by every session on the engine and receive no
// session id, so their rim is aggregated per layer only.
type timedKernel struct {
	k streamdag.Kernel
	r *rim
}

func (t timedKernel) Process(seq uint64, in []streamdag.Input) map[int]any {
	t0 := time.Now()
	out := t.k.Process(seq, in)
	t.r.add(t0)
	return out
}

type timedSpanKernel struct {
	timedKernel
	sk streamdag.SpanKernel
}

func (t timedSpanKernel) ProcessSpan(seq0 uint64, in, out []any) int {
	t0 := time.Now()
	n := t.sk.ProcessSpan(seq0, in, out)
	t.r.add(t0)
	return n
}

func wrapKernel(k streamdag.Kernel, r *rim) streamdag.Kernel {
	if sk, ok := k.(streamdag.SpanKernel); ok {
		return timedSpanKernel{timedKernel{k, r}, sk}
	}
	return timedKernel{k, r}
}

// wrapKernels wraps every kernel of ks with the shared rim r.
func wrapKernels(ks map[streamdag.NodeID]streamdag.Kernel, r *rim) map[streamdag.NodeID]streamdag.Kernel {
	out := make(map[streamdag.NodeID]streamdag.Kernel, len(ks))
	for id, k := range ks {
		out[id] = wrapKernel(k, r)
	}
	return out
}
