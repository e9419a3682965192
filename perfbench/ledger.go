package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one coarse call perfbench made into a layer, recorded only in
// the traced run.  Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Parent  int       `json:"parent"`
	Session uint64    `json:"session,omitempty"`
	SelfNs  int64     `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, ses uint64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent, Session: ses})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// finish computes every span's self time (its duration minus the union of
// its children) and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = int64(selfTime(interval{s.Start, s.End}, kids[i]))
	}
	return t.spans
}

// selfMs returns the self times of the spans named name, in milliseconds.
func selfMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.SelfNs)/1e6)
		}
	}
	return out
}

// writeTrace writes the spans to path as JSON.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtSample is a reading of process-wide counters: CPU from getrusage and
// the Go runtime's own accounting from runtime/metrics.
type rtSample struct {
	cpu        time.Duration // user + system CPU of the process
	gcCPU      float64       // seconds of CPU spent on garbage collection
	allocBytes uint64
	allocObjs  uint64
	schedLat   *metrics.Float64Histogram // time goroutines spent runnable before running
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	var s rtSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s.gcCPU = samples[0].Value.Float64()
	s.allocBytes = samples[1].Value.Uint64()
	s.allocObjs = samples[2].Value.Uint64()
	s.schedLat = samples[3].Value.Float64Histogram()
	return s
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile of h's samples.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			if ub := h.Buckets[i+1]; !math.IsInf(ub, 1) {
				return ub
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
