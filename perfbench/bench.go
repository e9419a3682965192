package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"streamdag"
)

const (
	sessionTimeout = 60 * time.Second // per session; a stuck session fails
	tailBeyond     = 10               // samples a tail percentile must have beyond it
	// An open-loop run is invalid when its generator woke this late at
	// the median, or when, at the median window, this many sessions were
	// still in flight as the window's schedule ended: the offered load was
	// then not the stated rate, or the engine did not keep up with it.
	// Medians, because a stall of a shared host makes a few wake-ups late
	// and leaves a few windows backed up even when both keep up.
	maxGenLateP50 = 5 * time.Millisecond
	maxInflight   = 10
)

// bench runs one workload for one seed.
type bench struct {
	sp   *spec
	seed uint64
	dur  time.Duration
	topo *streamdag.Topology

	// The oracle's outcome of one session: expected sink seqs and
	// per-edge counts.  Sessions differ only in payloads, so one oracle
	// run covers them all.
	wantSeqs    []uint64
	wantData    map[streamdag.EdgeID]int64
	wantDummies map[streamdag.EdgeID]int64

	nextSes   atomic.Uint64
	attempted atomic.Int64
	failed    atomic.Int64

	// setups holds the seconds of every set-up of the run.  setup_s is
	// their fast quartile: a set-up is short, so a stall of the host
	// lands on few samples but makes each far slower.  Over eight seeds on a
	// contended serve-tcp host the fast quartile spread 0.10 of its median
	// across runs, the slow one 0.20.
	setups []float64
}

func newBench(sp *spec, seed uint64, dur time.Duration) *bench {
	return &bench{sp: sp, seed: seed, dur: dur, topo: sp.topo()}
}

// env is one built engine and what the traced run attaches to it.
type env struct {
	eng       *streamdag.Engine
	tr        *tracer             // nil when untraced
	obs       *streamdag.Observer // nil when untraced
	kernelRim *rim                // nil when untraced
	root      int                 // span the sessions hang under
}

// setup builds the pipeline and starts its engine, from kernel
// construction through Engine ready (for the distributed backend, after
// the TCP mesh is dialled), and records how long that took.
func (b *bench) setup(tr *tracer) (*env, error) {
	e := &env{tr: tr, root: -1}
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	if tr != nil {
		// Classification and intervals, timed on their own; Build
		// repeats them internally.
		s := tr.begin("Analyze", root, 0)
		an, err := streamdag.Analyze(b.topo)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		s = tr.begin("Intervals", root, 0)
		_, err = an.Intervals(b.sp.alg)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("intervals: %w", err)
		}
	}
	t0 := time.Now()
	ks := b.sp.kernels(b.topo, b.seed)
	opts := []streamdag.Option{
		streamdag.WithAlgorithm(b.sp.alg),
		streamdag.WithBackend(b.sp.backend()),
		streamdag.WithMaxBatch(b.sp.batch),
	}
	if tr != nil {
		e.kernelRim = &rim{}
		ks = wrapKernels(ks, e.kernelRim)
		e.obs = streamdag.NewObserver()
		opts = append(opts, streamdag.WithObserver(e.obs))
	}
	opts = append(opts, streamdag.WithKernels(ks))
	s := tr.begin("Build", root, 0)
	pipe, err := streamdag.Build(b.topo, opts...)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	s = tr.begin("Engine", root, 0)
	e.eng, err = pipe.Engine()
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("start engine: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return e, nil
}

// sampleSetup sets up one more engine like e's and closes it again.  The
// measure loop calls it between windows, with no session in flight, so
// set-up is timed all through the run rather than in one burst at its
// start.
func (b *bench) sampleSetup(e *env) error {
	x, err := b.setup(e.tr)
	if err != nil {
		return err
	}
	c := e.tr.begin("Close", -1, 0)
	err = x.eng.Close()
	e.tr.end(c)
	if err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	return nil
}

// buildOracle runs one session on the Simulator backend with the same
// kernels and inputs, outside any timed window, and keeps its outcome as
// the expected result of every session (confluence: any schedule yields
// the same per-edge counts and sink sequence).
func (b *bench) buildOracle() error {
	pipe, err := streamdag.Build(b.topo,
		streamdag.WithAlgorithm(b.sp.alg),
		streamdag.WithBackend(streamdag.Simulator()),
		streamdag.WithKernels(b.sp.kernels(b.topo, b.seed)))
	if err != nil {
		return fmt.Errorf("oracle: build: %w", err)
	}
	var col streamdag.Collector
	src := &seqSource{seed: b.seed, ses: 0, n: b.sp.perSession}
	stats, err := pipe.Run(context.Background(), src, &col)
	if err != nil {
		return fmt.Errorf("oracle: run: %w", err)
	}
	for _, em := range col.Emissions() {
		b.wantSeqs = append(b.wantSeqs, em.Seq)
	}
	b.wantData, b.wantDummies = stats.Data, stats.Dummies
	return nil
}

// sesResult is one session's outcome.
type sesResult struct {
	inputs    uint64
	due, open time.Time // due time and Open call
	done      time.Time // Wait return
	stats     *streamdag.RunStats
	src, snk  *rim // traced only
}

// latency is the session time from its due time to Wait's return.
func (r *sesResult) latency() time.Duration { return r.done.Sub(r.due) }

// session opens one session on e, waits for it and checks its output.
func (b *bench) session(e *env, due time.Time) sesResult {
	idx := b.nextSes.Add(1)
	b.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	snk := newCheckSink(b.seed, idx, b.wantSeqs)
	var src streamdag.Source = &seqSource{seed: b.seed, ses: idx, n: b.sp.perSession}
	var sink streamdag.Sink = snk
	r := sesResult{inputs: b.sp.perSession, due: due}
	if e.tr != nil {
		r.src, r.snk = &rim{}, &rim{}
		src, sink = wrapSource(src, r.src), wrapSink(sink, r.snk)
	}
	r.open = time.Now()
	sp := e.tr.begin("Open", e.root, idx)
	ses, err := e.eng.Open(ctx, src, sink)
	e.tr.end(sp)
	if err != nil {
		b.fail(idx, fmt.Errorf("open: %w", err))
		r.done = time.Now()
		return r
	}
	sp = e.tr.begin("Wait", e.root, idx)
	r.stats, err = ses.Wait()
	e.tr.end(sp)
	r.done = time.Now()
	if err == nil {
		err = snk.verify()
	}
	if err == nil {
		err = b.checkStats(r.stats)
	}
	if err != nil {
		b.fail(idx, err)
	}
	return r
}

// checkStats compares a session's per-edge counts with the oracle.
func (b *bench) checkStats(st *streamdag.RunStats) error {
	if st.SinkData != int64(len(b.wantSeqs)) {
		return fmt.Errorf("sink data %d, want %d", st.SinkData, len(b.wantSeqs))
	}
	for i := 0; i < b.topo.Graph().NumEdges(); i++ {
		id := streamdag.EdgeID(i)
		if st.Data[id] != b.wantData[id] || st.Dummies[id] != b.wantDummies[id] {
			return fmt.Errorf("edge %d: data/dummies %d/%d, want %d/%d",
				i, st.Data[id], st.Dummies[id], b.wantData[id], b.wantDummies[id])
		}
	}
	return nil
}

// fail counts a failed session and reports the first few.
func (b *bench) fail(idx uint64, err error) {
	if b.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: session %d: %v\n", idx, err)
	}
}

func sortedSpecs() []*spec {
	out := make([]*spec, 0, len(specs))
	for _, s := range specs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the revision the go command stamped into the binary, when
// it was built inside a git checkout.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
