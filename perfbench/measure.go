package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamdag"
)

// slot is one kind of measured window: the engine that serves it and the
// GOMAXPROCS it runs at.  A run cycles through its slots window by
// window, so every kind of window samples the whole run and a slow spell
// of the machine lands on all of them alike.
type slot struct {
	e     *env
	procs int
}

// window is one measured stretch: a round of closed-loop sessions, or one
// second of the open-loop schedule and the sessions it dued.
type window struct {
	slot         *slot
	rt0, rt1     rtSample
	snap0, snap1 *streamdag.Snapshot // traced engine only
	k0, k1       [2]int64            // kernel rim calls and ns, traced engine only
	sessions     []sesResult
}

func (w *window) open(s *slot) {
	w.slot = s
	if e := s.e; e.obs != nil {
		w.snap0 = e.obs.Snapshot()
		w.k0 = [2]int64{e.kernelRim.calls.Load(), e.kernelRim.ns.Load()}
	}
	w.rt0 = readRuntime()
}

func (w *window) close() {
	w.rt1 = readRuntime()
	if e := w.slot.e; e.obs != nil {
		w.snap1 = e.obs.Snapshot()
		w.k1 = [2]int64{e.kernelRim.calls.Load(), e.kernelRim.ns.Load()}
	}
}

// inputs totals the inputs of the window's sessions.
func (w *window) inputs() float64 {
	var n uint64
	for _, r := range w.sessions {
		n += r.inputs
	}
	return float64(n)
}

// delivery is the stretch over which the window's inputs were delivered:
// from the first session's due time to the last one's return.
func (w *window) delivery() time.Duration {
	first, last := w.sessions[0].due, w.sessions[0].done
	for _, r := range w.sessions {
		if r.due.Before(first) {
			first = r.due
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	return last.Sub(first)
}

// measure runs the workload for dur, and for at least one window per
// slot, cycling through slots after one unmeasured warm-up window per slot
// (one in all for the open loop).  Between windows it samples set-ups at
// the default GOMAXPROCS (see sampleSetup).  It restores GOMAXPROCS on
// return.
func (b *bench) measure(slots []*slot, dur time.Duration) ([]*window, *openStats, error) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	if b.sp.clients == 0 {
		return b.openLoop(slots, dur, procs)
	}
	for _, s := range slots {
		b.round(s)
	}
	var ws []*window
	start := time.Now()
	for i := 0; i < len(slots) || time.Since(start) < dur; i++ {
		s := slots[i%len(slots)]
		ws = append(ws, b.round(s))
		runtime.GOMAXPROCS(procs)
		if err := b.sampleSetup(s.e); err != nil {
			return nil, nil, err
		}
	}
	return ws, nil, nil
}

// round is one closed-loop window: each client runs one session, all at
// once, and the round ends when the last returns.
func (b *bench) round(s *slot) *window {
	runtime.GOMAXPROCS(s.procs)
	w := &window{}
	w.open(s)
	w.sessions = make([]sesResult, b.sp.clients)
	var wg sync.WaitGroup
	for c := range w.sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.sessions[c] = b.session(s.e, time.Now())
		}(c)
	}
	wg.Wait()
	w.close()
	return w
}

// openStats describes how well the open-loop generator kept its schedule.
type openStats struct {
	lateP50, lateP99 float64   // generator lateness, ms
	inflight         []float64 // sessions still running as each window's schedule ended
}

const (
	openWindow       = time.Second // the open-loop window length
	setupsPerOpenWin = 10          // set-ups sampled after each open-loop window
)

// openLoop runs the open-loop schedule in windows of openWindow: each
// window dues one session every 1/rate seconds (see scheduleWindow), and
// after its sessions have returned, set-ups are sampled with no session
// in flight, as in the closed loop.  The first window warms up and is not
// returned.
func (b *bench) openLoop(slots []*slot, dur time.Duration, procs int) ([]*window, *openStats, error) {
	period := time.Duration(float64(time.Second) / b.sp.rate)
	perWin := int(openWindow / period)
	nWin := 1 + max(len(slots), int(dur/openWindow))
	st := &openStats{}
	var late []float64
	var ws []*window
	for k := 0; k < nWin; k++ {
		s := slots[0]
		if k > 0 {
			s = slots[(k-1)%len(slots)]
		}
		w, wLate, inflight := b.scheduleWindow(s, period, perWin)
		if k == 0 {
			continue
		}
		ws = append(ws, w)
		late = append(late, wLate...)
		st.inflight = append(st.inflight, float64(inflight))
		runtime.GOMAXPROCS(procs)
		for j := 0; j < setupsPerOpenWin; j++ {
			if err := b.sampleSetup(s.e); err != nil {
				return nil, nil, err
			}
		}
	}
	st.lateP50, st.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	return ws, st, nil
}

// scheduleWindow dues perWin sessions on s, one every period from now.  The
// generator goroutine only keeps the schedule and hands each due session
// to a goroutine of its own, so a slow system never slows it.  It returns
// the window once every session has returned, with each due time's
// lateness in ms and the sessions still in flight one period after the
// last due time.
func (b *bench) scheduleWindow(s *slot, period time.Duration, perWin int) (*window, []float64, int) {
	runtime.GOMAXPROCS(s.procs)
	w := &window{sessions: make([]sesResult, perWin)}
	w.open(s)
	late := make([]float64, perWin)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i := range w.sessions {
		due := start.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		late[i] = float64(time.Since(due)) / 1e6
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.sessions[i] = b.session(s.e, due)
			inflight.Add(-1)
		}()
	}
	time.Sleep(time.Until(start.Add(time.Duration(perWin) * period)))
	n := int(inflight.Load())
	wg.Wait()
	w.close()
	return w, late, n
}

// valid reports why an open-loop run cannot be scored, or nil.
func (st *openStats) valid() error {
	if st == nil {
		return nil
	}
	if st.lateP50 > float64(maxGenLateP50)/1e6 {
		return fmt.Errorf("generator fell behind: lateness p50 %.2f ms", st.lateP50)
	}
	if n := median(st.inflight); n > maxInflight {
		return fmt.Errorf("backlog: %.1f sessions in flight as the median window's schedule ended", n)
	}
	return nil
}

// of returns the windows served by slot s.
func of(ws []*window, s *slot) []*window {
	var out []*window
	for _, w := range ws {
		if w.slot == s {
			out = append(out, w)
		}
	}
	return out
}

// perWindow returns f of every window.
func perWindow(ws []*window, f func(*window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// sessionsOf returns the sessions of ws.
func sessionsOf(ws []*window) []sesResult {
	var out []sesResult
	for _, w := range ws {
		out = append(out, w.sessions...)
	}
	return out
}

// latenciesMs returns every session's latency in milliseconds.
func latenciesMs(rs []sesResult) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = float64(rs[i].latency()) / 1e6
	}
	return out
}

// Closed-loop timings are taken per window and summarized by the quartile
// on the slow side: the lower quartile of a rate, the upper quartile of a
// cost.  Interference from other tenants of the host only ever slows a
// window, and on a shared host most windows are slowed, so the slow
// quartile is the steady state; across runs it moved about half as much
// as the median did.  Open-loop latencies (see latency) and set-up times
// (see bench.setups) are the exceptions: they take the fast quartile.
func slowRate(xs []float64) float64 { return quantile(xs, 0.25) }
func slowCost(xs []float64) float64 { return quantile(xs, 0.75) }

// throughput is inputs delivered per second: a window delivers its inputs
// between its first due time and its last session's return.
func throughput(ws []*window) float64 {
	return slowRate(perWindow(ws, func(w *window) float64 { return w.inputs() / w.delivery().Seconds() }))
}

// cpuPerIn is process CPU per input.
func cpuPerIn(ws []*window) float64 {
	return slowCost(perWindow(ws, func(w *window) float64 { return float64(w.rt1.cpu-w.rt0.cpu) / w.inputs() }))
}

// latency summarizes per-window session latencies.  In the closed loops
// it is slowCost, like every timing.  In the open loop a stall of the host
// delays every session due during and after it, as they queue behind it,
// so a few stalled windows read far slower than the program is; there the
// fast quartile is used, which a slower program still moves because it
// slows every window.  Over ten seeds on a noisy host the fast quartile of
// the per-window p50 and p90 spread 0.06 and 0.12 across runs, the slow
// quartile 0.19 and 1.03.
func (b *bench) latency(perWin []float64) float64 {
	if b.sp.clients == 0 {
		return quantile(perWin, 0.25)
	}
	return slowCost(perWin)
}

// sessionP50 is the median latency of a window's sessions.
func (b *bench) sessionP50(ws []*window) float64 {
	return b.latency(perWindow(ws, func(w *window) float64 { return median(latenciesMs(w.sessions)) }))
}

// edgeTotals sums the per-edge data and dummy counts of sessions rs.
func edgeTotals(rs []sesResult) (data, dummies map[streamdag.EdgeID]int64) {
	data, dummies = make(map[streamdag.EdgeID]int64), make(map[streamdag.EdgeID]int64)
	for _, r := range rs {
		if r.stats == nil {
			continue
		}
		for e, n := range r.stats.Data {
			data[e] += n
		}
		for e, n := range r.stats.Dummies {
			dummies[e] += n
		}
	}
	return data, dummies
}

func sum(m map[streamdag.EdgeID]int64) float64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return float64(s)
}
