package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"

	"streamdag"
)

// runPlain is the untraced run: it cycles windows at the default
// GOMAXPROCS (two of every three) with windows at GOMAXPROCS=1, the
// single-thread baseline of the same job, and reports the end-to-end
// metrics.
func (b *bench) runPlain() (*result, map[string]any, error) {
	if err := b.buildOracle(); err != nil {
		return nil, nil, err
	}
	e, err := b.setup(nil)
	if err != nil {
		return nil, nil, err
	}
	defer e.eng.Close()
	procs := runtime.GOMAXPROCS(0)
	main, one := &slot{e, procs}, &slot{e, 1}
	ws, st, err := b.measure([]*slot{main, main, one}, b.dur)
	if err != nil {
		return nil, nil, err
	}
	if err := st.valid(); err != nil {
		return nil, nil, fmt.Errorf("invalid run: %w", err)
	}
	mw, ow := of(ws, main), of(ws, one)
	rs := sessionsOf(mw)
	data, dummies := edgeTotals(rs)
	tl, perWin := b.sessionTail(mw)
	runTail := tailPercentile(latenciesMs(rs), tailBeyond)
	if !tl.OK {
		return nil, nil, fmt.Errorf("%d sessions are too few for a tail percentile", tl.N)
	}
	var inputs float64
	for _, w := range mw {
		inputs += w.inputs()
	}
	m := map[string]metric{
		"setup_s":            {quantile(b.setups, 0.25), "s"},
		"throughput_in_s":    {throughput(mw), "1/s"},
		"throughput_1p_in_s": {throughput(ow), "1/s"},
		"cpu_ns_per_in":      {cpuPerIn(mw), "ns/in"},
		"alloc_b_per_in": {median(perWindow(mw, func(w *window) float64 {
			return float64(w.rt1.allocBytes-w.rt0.allocBytes) / w.inputs()
		})), "B/in"},
		"rss_peak_mb":     {peakRSSMiB(), "MiB"},
		"msgs_per_in":     {(sum(data) + sum(dummies)) / inputs, "msgs/in"},
		"session_p50_ms":  {b.sessionP50(mw), "ms"},
		"session_tail_ms": {tl.Value, "ms"},
	}
	details := map[string]any{
		"loop":                    b.loopDesc(),
		"gomaxprocs":              procs,
		"windows":                 len(mw),
		"windows_1p":              len(ow),
		"sessions":                len(rs),
		"setups":                  len(b.setups),
		"session_tail_pct":        tl.Percentile,
		"session_tail_n":          tl.N,
		"session_tail_per_window": perWin,
		"session_tail_run_ms":     runTail.Value,
		"session_tail_run_pct":    runTail.Percentile,
		"dummy_ratio":             ratio(sum(dummies), sum(data)),
		"failed_frac":             float64(b.failed.Load()) / float64(b.attempted.Load()),
	}
	if st != nil {
		details["gen_late_p50_ms"] = st.lateP50
		details["gen_late_p99_ms"] = st.lateP99
		details["inflight_at_window_end_p50"] = median(st.inflight)
		details["inflight_at_window_end_max"] = quantile(st.inflight, 1)
	}
	return b.result(m), details, nil
}

// sessionTail is the session-latency tail: the highest percentile with
// tailBeyond samples beyond it, and whether it was taken per window.  The
// closed loops hold one or two sessions a window, so there it is taken
// over all sessions.  The open loop's one-second windows hold 100 sessions
// each, so there it is each window's p90, summarized by latency: over the
// whole run the rule reaches p99.5 of about 2000 sessions, which moved by
// more than its bound from run to run.  N is the sample count of one
// percentile.
func (b *bench) sessionTail(ws []*window) (tail, bool) {
	per := make([]float64, 0, len(ws))
	var t tail
	for _, w := range ws {
		if t = tailPercentile(latenciesMs(w.sessions), tailBeyond); !t.OK {
			return tailPercentile(latenciesMs(sessionsOf(ws)), tailBeyond), false
		}
		per = append(per, t.Value)
	}
	t.Value = b.latency(per)
	return t, true
}

func (b *bench) loopDesc() string {
	if b.sp.clients > 0 {
		return fmt.Sprintf("closed: %d clients x %d-input sessions", b.sp.clients, b.sp.perSession)
	}
	return fmt.Sprintf("open: %.0f sessions/s x %d inputs", b.sp.rate, b.sp.perSession)
}

func (b *bench) result(m map[string]metric) *result {
	failed := b.failed.Load()
	return &result{Correct: failed == 0, Attempted: b.attempted.Load(), Failed: failed, Metrics: m}
}

// runTraced is the traced run: windows alternate between an untraced
// engine and one with an Observer and timed rims, so the per-layer ledger
// and the cost of tracing come from the same stretch of the run.
func (b *bench) runTraced() (*result, map[string]any, error) {
	if err := b.buildOracle(); err != nil {
		return nil, nil, err
	}
	plain, err := b.setup(nil)
	if err != nil {
		return nil, nil, err
	}
	defer plain.eng.Close()
	tr := &tracer{}
	e, err := b.setup(tr)
	if err != nil {
		return nil, nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	base, traced := &slot{plain, procs}, &slot{e, procs}
	e.root = tr.begin("measure", -1, 0)
	ws, st, err := b.measure([]*slot{base, traced}, b.dur)
	tr.end(e.root)
	if err != nil {
		return nil, nil, err
	}
	c := tr.begin("Close", -1, 0)
	err = e.eng.Close()
	tr.end(c)
	if err != nil {
		return nil, nil, fmt.Errorf("close engine: %w", err)
	}
	if err := st.valid(); err != nil {
		return nil, nil, fmt.Errorf("invalid run: %w", err)
	}
	spans := tr.finish()
	path, err := writeSpans(b.sp.name, b.seed, spans)
	if err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	tw := of(ws, traced)
	m := b.ledger(tw, cpuPerIn(of(ws, base)), spans, st)
	details := map[string]any{
		"loop":       b.loopDesc(),
		"gomaxprocs": procs,
		"windows":    len(tw),
		"sessions":   len(sessionsOf(tw)),
		"spans":      len(spans),
		"trace_file": path,
	}
	return b.result(m), details, nil
}

// ledger computes the per-layer metrics over the traced windows ws;
// baseCPU is the untraced windows' CPU per input.
func (b *bench) ledger(ws []*window, baseCPU float64, spans []span, st *openStats) map[string]metric {
	rs := sessionsOf(ws)
	var in, cpu, gc, allocObjs, kCalls, kNs float64
	var sched *metrics.Float64Histogram
	var ec engineCounters
	for _, w := range ws {
		in += w.inputs()
		cpu += float64(w.rt1.cpu - w.rt0.cpu)
		gc += (w.rt1.gcCPU - w.rt0.gcCPU) * 1e9
		allocObjs += float64(w.rt1.allocObjs - w.rt0.allocObjs)
		kCalls += float64(w.k1[0] - w.k0[0])
		kNs += float64(w.k1[1] - w.k0[1])
		sched = addHist(sched, w.rt0.schedLat, w.rt1.schedLat)
		ec.add(w.snap1, 1)
		ec.add(w.snap0, -1)
	}
	var srcCalls, srcNs, snkCalls, snkNs float64
	for _, r := range rs {
		srcCalls += float64(r.src.calls.Load())
		srcNs += float64(r.src.ns.Load())
		snkCalls += float64(r.snk.calls.Load())
		snkNs += float64(r.snk.ns.Load())
	}
	var opens []float64
	var openNs float64
	for _, s := range spans {
		if s.Name == "Open" && s.Parent >= 0 {
			opens = append(opens, float64(s.SelfNs)/1e3)
			openNs += float64(s.SelfNs)
		}
	}
	rims := srcNs + kNs + snkNs
	// Process CPU that neither the rims nor the collector account for is
	// the engine's own.
	engineSelf := (cpu - rims - gc) / in
	data, dummies := edgeTotals(rs)

	m := map[string]metric{
		"streamdag.build_ms":        {median(selfMs(spans, "Build")), "ms"},
		"streamdag.engine_start_ms": {median(selfMs(spans, "Engine")), "ms"},
		"streamdag.open_us_p50":     {median(opens), "us"},
		"analysis.classify_ms":      {median(selfMs(spans, "Analyze")), "ms"},
		"analysis.intervals_ms":     {median(selfMs(spans, "Intervals")), "ms"},
		"proto.data_per_in":         {sum(data) / in, "msgs/in"},
		"proto.dummy_per_in":        {sum(dummies) / in, "msgs/in"},
		"proto.dummy_ratio":         {ratio(sum(dummies), sum(data)), "ratio"},
		"source.ns_per_in":          {srcNs / in, "ns/in"},
		"kernel.ns_per_in":          {kNs / in, "ns/in"},
		"sink.ns_per_in":            {snkNs / in, "ns/in"},
		"source.calls_per_in":       {srcCalls / in, "count/in"},
		"kernel.calls_per_in":       {kCalls / in, "count/in"},
		"sink.calls_per_in":         {snkCalls / in, "count/in"},
		"gc.cpu_frac":               {gc / cpu, "ratio"},
		"gc.mallocs_per_in":         {allocObjs / in, "count/in"},
		"sched.latency_p99_us":      {histQuantile(sched, 0.99) * 1e6, "us"},
		"obs.trace_overhead_pct":    {100 * (cpuPerIn(ws) - baseCPU) / baseCPU, "%"},
		"bench.ledger_cover_pct":    {100 * (rims + gc + openNs) / cpu, "%"},
		"bench.gen_late_p99_ms":     {0, "ms"},
	}
	if st != nil {
		m["bench.gen_late_p99_ms"] = metric{st.lateP99, "ms"}
	}
	for k, v := range b.engineLayer(&ec, engineSelf, in, ws) {
		m[k] = v
	}
	// Per-edge dummies of every workload that declares them; the others
	// carry no dummies there, so they read zero.
	for _, other := range sortedSpecs() {
		if other.edgeTag == "" {
			continue
		}
		for i, name := range edgeMetricNames(other.edgeTag, other.topo()) {
			v := 0.0
			if other == b.sp {
				v = float64(dummies[streamdag.EdgeID(i)]) / in
			}
			m["proto.dummy_per_in."+name] = metric{v, "msgs/in"}
		}
	}
	return m
}

// engineLayer reports the backend that ran the workload: stream (the
// goroutine engine) or dist (the TCP engine).  The other one did no work
// and reads zero.
func (b *bench) engineLayer(c *engineCounters, self, in float64, ws []*window) map[string]metric {
	m := map[string]metric{
		"stream.self_ns_per_in":        {0, "ns/in"},
		"stream.firings_per_in":        {0, "count/in"},
		"stream.span_fill":             {0, "msgs/span"},
		"stream.credit_stalls_per_kin": {0, "count/kin"},
		"stream.credit_stall_frac":     {0, "ratio"},
		"dist.self_ns_per_in":          {0, "ns/in"},
		"dist.tx_bytes_per_in":         {0, "B/in"},
		"dist.tx_frames_per_in":        {0, "count/in"},
		"dist.bodies_per_frame":        {0, "count"},
	}
	if b.sp.overTCP() {
		m["dist.self_ns_per_in"] = metric{self, "ns/in"}
		m["dist.tx_bytes_per_in"] = metric{c.txBytes / in, "B/in"}
		m["dist.tx_frames_per_in"] = metric{c.txFrames / in, "count/in"}
		m["dist.bodies_per_frame"] = metric{ratio(c.txBodies, c.txFrames), "count"}
		return m
	}
	// Producer time: every node with an out-edge, in every session, for
	// the length of its window.
	g := b.topo.Graph()
	producers := 0
	for n := 0; n < g.NumNodes(); n++ {
		if len(g.Out(streamdag.NodeID(n))) > 0 {
			producers++
		}
	}
	var sessionNs float64
	for _, r := range sessionsOf(ws) {
		sessionNs += float64(r.done.Sub(r.open))
	}
	m["stream.self_ns_per_in"] = metric{self, "ns/in"}
	m["stream.firings_per_in"] = metric{c.firings / in, "count/in"}
	m["stream.span_fill"] = metric{ratio(c.spanMsgs, c.spans), "msgs/span"}
	m["stream.credit_stalls_per_kin"] = metric{1000 * c.stalls / in, "count/kin"}
	m["stream.credit_stall_frac"] = metric{ratio(c.stallNs, sessionNs*float64(producers)), "ratio"}
	return m
}

// addHist adds the samples recorded between before and after to acc.
func addHist(acc, before, after *metrics.Float64Histogram) *metrics.Float64Histogram {
	if acc == nil {
		acc = &metrics.Float64Histogram{Buckets: after.Buckets, Counts: make([]uint64, len(after.Counts))}
	}
	for i := range after.Counts {
		acc.Counts[i] += after.Counts[i] - before.Counts[i]
	}
	return acc
}

// engineCounters totals the Observer counters the ledger reads.
type engineCounters struct {
	firings, spans, spanMsgs    float64
	stalls, stallNs             float64
	txBytes, txFrames, txBodies float64
}

// add adds sign times the totals of snapshot s.  Totals, not
// Snapshot.Delta, because Delta pairs edges by name and parallel edges
// share one.
func (c *engineCounters) add(s *streamdag.Snapshot, sign float64) {
	for _, n := range s.Nodes {
		c.firings += sign * float64(n.Firings)
		c.spans += sign * float64(n.Spans)
		c.spanMsgs += sign * float64(n.SpanMsgs)
	}
	for _, e := range s.Edges {
		c.stalls += sign * float64(e.CreditStalls)
		c.stallNs += sign * float64(e.CreditStallTime)
	}
	for _, l := range s.Links {
		c.txBytes += sign * float64(l.TxBytes)
		c.txFrames += sign * float64(l.TxFrames)
		c.txBodies += sign * float64(l.TxBodies)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
