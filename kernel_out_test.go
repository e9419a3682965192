package streamdag

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streamdag/internal/stream"
)

// Tests for the goroutine engine's allocation-free kernel form
// (stream.ProcessOut): every library kernel's ProcessOut must agree with
// its Process, and the batch-1 firing path must not allocate per input.

// outForm is the engine's out-slice kernel form, as the library kernels
// implement it.
type outForm interface {
	ProcessOut(seq uint64, in []Input, out []any, emitted []bool)
}

// tapLog records what a tap saw, so the two forms' taps can be compared.
type tapLog struct{ seen []any }

func (l *tapLog) fn(v any) { l.seen = append(l.seen, v) }

// outFormCase builds a fresh kernel (and its observable side state) per
// form, so stateful decorators — taps, stage-type-error slots — are
// compared run against run rather than sharing state.
type outFormCase struct {
	name      string
	nIn, nOut int
	mk        func() (Kernel, func() any) // kernel, side-state snapshot
}

func outFormCases() []outFormCase {
	ident := func(v any) any { return v }
	noSide := func() any { return nil }
	plain := func(k func() Kernel) func() (Kernel, func() any) {
		return func() (Kernel, func() any) { return k(), noSide }
	}
	slotted := func(k func(*stageErrSlot) Kernel) func() (Kernel, func() any) {
		return func() (Kernel, func() any) {
			slot := &stageErrSlot{}
			return k(slot), func() any {
				if e := slot.load(); e != nil {
					return e.Error()
				}
				return nil
			}
		}
	}
	tapped := func(inner func(nIn, nOut int) Kernel) func() (Kernel, func() any) {
		return func() (Kernel, func() any) {
			log := &tapLog{}
			b := &stageBase{tap: log.fn}
			return b.wrapTap(inner)(1, 2), func() any { return log.seen }
		}
	}

	topo := NewTopology()
	topo.Channel("a", "b", 4)
	topo.Channel("a", "c", 4)
	topo.Channel("a", "c", 4)
	topo.Channel("b", "d", 4)
	topo.Channel("c", "d", 4)
	route := func(node string) func() Kernel {
		return func() Kernel { return RouteKernels(topo, Bernoulli(0.5, 7))[topo.Node(node)] }
	}

	var cases []outFormCase
	for _, outs := range []int{0, 1, 3} {
		outs := outs
		cases = append(cases,
			outFormCase{fmt.Sprintf("MapKernel/outs=%d", outs), 1, outs,
				plain(func() Kernel { return MapKernel(outs, ident) })},
			outFormCase{fmt.Sprintf("Passthrough/outs=%d", outs), 2, outs,
				plain(func() Kernel { return stream.Passthrough(outs) })},
		)
	}
	return append(cases,
		outFormCase{"RouteKernels/source", 1, 3, plain(route("a"))},
		outFormCase{"RouteKernels/join", 2, 0, plain(route("d"))},
		outFormCase{"FlowMap/int", 1, 2, slotted(func(s *stageErrSlot) Kernel {
			return flowMapKernel[int, int]{nOut: 2, name: "m", slot: s, fn: func(v int) int { return v + 1 }}
		})},
		outFormCase{"FlowMap/any", 1, 2, slotted(func(s *stageErrSlot) Kernel {
			return flowMapKernel[any, any]{nOut: 2, name: "m", slot: s, fn: func(v any) any { return v }}
		})},
		outFormCase{"FlowSource", 1, 2, slotted(func(s *stageErrSlot) Kernel {
			return flowSourceKernel[int]{nOut: 2, slot: s}
		})},
		outFormCase{"FlowSink", 1, 0, slotted(func(s *stageErrSlot) Kernel {
			return flowSinkKernel[int]{slot: s}
		})},
		outFormCase{"Tap/FlowMap", 1, 2, tapped(func(_, nOut int) Kernel {
			return flowMapKernel[any, any]{nOut: nOut, name: "m", slot: &stageErrSlot{}, fn: func(v any) any { return v }}
		})},
		outFormCase{"Tap/KernelFunc", 1, 2, tapped(func(_, nOut int) Kernel {
			return KernelFunc(func(seq uint64, in []Input) map[int]any {
				if seq%3 == 0 {
					return nil
				}
				return map[int]any{0: in[0].Payload, 1: in[0].Payload}
			})
		})},
	)
}

// seededInputs draws n aligned input vectors: absent inputs, and present
// ones carrying an int, a string (a type mismatch for typed stages) or a
// nil payload, which a forwarding kernel emits as a present nil.
func seededInputs(seed int64, n, nIn int) [][]Input {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Input, n)
	for s := range out {
		in := make([]Input, nIn)
		for i := range in {
			switch r := rng.Intn(10); {
			case r < 3:
				// absent
			case r < 5:
				in[i] = Input{Present: true}
			case r < 6:
				in[i] = Input{Present: true, Payload: fmt.Sprint("s", s)}
			default:
				in[i] = Input{Present: true, Payload: rng.Intn(1000)}
			}
		}
		out[s] = in
	}
	return out
}

// TestKernelOutFormParity: on seeded inputs, every library kernel's
// ProcessOut emits exactly the positions and payloads its Process map
// holds, a sink's position 0 yields the same SinkPayload, and side
// effects (taps, stage type errors) match.
func TestKernelOutFormParity(t *testing.T) {
	for _, c := range outFormCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mapK, mapSide := c.mk()
			outK, outSide := c.mk()
			of, ok := outK.(outForm)
			if !ok {
				t.Fatalf("%T has no ProcessOut", outK)
			}
			width := max(1, c.nOut)
			out, emitted := make([]any, width), make([]bool, width)
			nilEmitted := false
			for seq, in := range seededInputs(int64(len(c.name)), 400, c.nIn) {
				seq := uint64(seq)
				m := mapK.Process(seq, append([]Input(nil), in...))
				clear(out)
				clear(emitted)
				of.ProcessOut(seq, in, out, emitted)
				for i := 0; i < c.nOut; i++ {
					v, ok := m[i]
					if emitted[i] != ok || (ok && !reflect.DeepEqual(out[i], v)) {
						t.Fatalf("seq %d pos %d: ProcessOut (%v, %v), Process (%v, %v)", seq, i, out[i], emitted[i], v, ok)
					}
					nilEmitted = nilEmitted || (ok && v == nil)
				}
				if c.nOut == 0 {
					want := stream.SinkPayload(in, m)
					got := firstPresentOr(in, out, emitted)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seq %d: sink payload %v, Process gives %v", seq, got, want)
					}
				}
			}
			if !reflect.DeepEqual(outSide(), mapSide()) {
				t.Fatalf("side effects differ: ProcessOut %v, Process %v", outSide(), mapSide())
			}
			if c.nOut > 0 && c.name != "FlowMap/int" && c.name != "FlowSource" && !nilEmitted {
				t.Fatal("inputs never exercised an emitted nil payload")
			}
		})
	}
}

// firstPresentOr is the engine's sink payload over the out-slice form:
// position 0 when emitted, else the first present input.
func firstPresentOr(in []Input, out []any, emitted []bool) any {
	if emitted[0] {
		return out[0]
	}
	if p, ok := firstPresent(in); ok {
		return p
	}
	return nil
}

// mapSink keeps the reference map of TestKernelOutFormAllocs escaping,
// as a kernel's returned map does.
var mapSink map[int]any

// TestKernelOutFormAllocs: the out-slice form of every library kernel
// allocates nothing per firing, and RouteKernels' Process — still
// called by the simulator and distributed backends — allocates only the
// one map it returns.
func TestKernelOutFormAllocs(t *testing.T) {
	in := []Input{{Present: true, Payload: 7}, {Present: true, Payload: 8}}
	oneMap := testing.AllocsPerRun(100, func() {
		m := make(map[int]any, 3)
		for i := 0; i < 3; i++ {
			m[i] = in[0].Payload
		}
		mapSink = m
	})
	for _, c := range outFormCases() {
		k, _ := c.mk()
		of := k.(outForm)
		width := max(1, c.nOut)
		out, emitted := make([]any, width), make([]bool, width)
		kin := in[:c.nIn]
		var seq uint64 = 1 // the Tap/KernelFunc case filters seq%3 == 0
		if a := testing.AllocsPerRun(100, func() { of.ProcessOut(seq, kin, out, emitted) }); a != 0 && c.name != "Tap/KernelFunc" {
			t.Errorf("%s: ProcessOut allocates %.1f per firing, want 0", c.name, a)
		}
		if c.name == "RouteKernels/source" {
			if a := testing.AllocsPerRun(100, func() { mapSink = k.Process(seq, kin) }); a != oneMap {
				t.Errorf("RouteKernels Process allocates %.1f per firing, want %.1f (its one map)", a, oneMap)
			}
		}
	}
}

// TestBatch1FiringAllocationFree is the firing path's allocation gate: a
// batch-1 gen → work(MapKernel) → out session of 20k pre-boxed payloads
// on the goroutine backend allocates well under one object per input
// (the per-session set-up is all that remains).
func TestBatch1FiringAllocationFree(t *testing.T) {
	const n = 20_000
	topo := NewTopology()
	topo.Channel("gen", "work", 256)
	topo.Channel("work", "out", 256)
	p, err := Build(topo, WithKernel("work", MapKernel(1, func(v any) any { return v })), WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pls := make([]any, n)
	for i := range pls {
		pls[i] = i
	}
	// Warm-up session: first-use growth (rings, mailboxes, pools) is not
	// per-input cost.
	if ses, err := eng.Open(context.Background(), SliceSource(pls[:1000]...), DiscardSink()); err != nil {
		t.Fatal(err)
	} else if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
	ses, err := eng.Open(context.Background(), SliceSource(pls...), DiscardSink())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := ses.Wait()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SinkData != n {
		t.Fatalf("sink saw %d of %d inputs", stats.SinkData, n)
	}
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f heap allocations per input", per)
	if per >= 1 {
		t.Errorf("batch-1 firing path allocates %.3f objects per input; want < 1", per)
	}
}
