package stream

import (
	"testing"
)

// Ring-head tests: the per-session fifo the resident engine dequeues
// heads (and source payloads) from.

// drain pops everything queued and returns the sequence numbers in order.
func drain(q *fifo[Message]) []uint64 {
	var out []uint64
	for q.len() > 0 {
		out = append(out, q.at(0).Seq)
		q.pop(1)
	}
	return out
}

func TestFifoWrapAround(t *testing.T) {
	var q fifo[Message]
	next, want := uint64(0), uint64(0)
	// Keep 3 queued in a 4-slot ring while the head laps it many times.
	for i := 0; i < 100; i++ {
		for q.len() < 3 {
			q.push(Message{Seq: next})
			next++
		}
		if got := q.at(0).Seq; got != want {
			t.Fatalf("step %d: head %d, want %d", i, got, want)
		}
		q.pop(1)
		want++
	}
	if len(q.buf) != fifoMinCap {
		t.Fatalf("ring grew to %d under a backlog of 3", len(q.buf))
	}
}

func TestFifoGrowWithNonZeroHead(t *testing.T) {
	var q fifo[Message]
	for s := uint64(0); s < 4; s++ {
		q.push(Message{Seq: s})
	}
	q.pop(3) // head at index 3: the next pushes wrap
	for s := uint64(4); s < 11; s++ {
		q.push(Message{Seq: s}) // grows 4 → 8 with head != 0
	}
	got := drain(&q)
	for i, s := range got {
		if s != uint64(i+3) {
			t.Fatalf("order after growth: %v", got)
		}
	}
	if len(got) != 8 || len(q.buf) != 8 {
		t.Fatalf("got %d elements in a %d-slot ring, want 8 in 8", len(got), len(q.buf))
	}
}

func TestFifoPushAllAcrossWrap(t *testing.T) {
	var q fifo[Message]
	q.grow(8)
	for s := uint64(0); s < 6; s++ {
		q.push(Message{Seq: s})
	}
	q.pop(5) // one queued, at index 5
	span := make([]Message, 6)
	for i := range span {
		span[i] = Message{Seq: uint64(6 + i)}
	}
	q.pushAll(span) // slots 6,7 then 0..3
	if len(q.buf) != 8 {
		t.Fatalf("pushAll within capacity grew the ring to %d", len(q.buf))
	}
	got := drain(&q)
	for i, s := range got {
		if s != uint64(5+i) {
			t.Fatalf("order across the wrap: %v", got)
		}
	}
	if len(got) != 7 {
		t.Fatalf("got %d elements, want 7", len(got))
	}
	// A span larger than the free room grows first, keeping order.
	q.push(Message{Seq: 0})
	big := make([]Message, 20)
	for i := range big {
		big[i] = Message{Seq: uint64(i + 1)}
	}
	q.pushAll(big)
	if got := drain(&q); len(got) != 21 || got[0] != 0 || got[20] != 20 {
		t.Fatalf("pushAll with growth: %v", got)
	}
}

func TestFifoPopZeroesSlots(t *testing.T) {
	var q fifo[Message]
	for s := uint64(0); s < 4; s++ {
		q.push(Message{Seq: s, Kind: Data, Payload: &s})
	}
	q.pop(3)
	for i, m := range q.buf {
		live := i == q.head
		if !live && m != (Message{}) {
			t.Fatalf("popped slot %d still holds %+v", i, m)
		}
	}
	q.pop(1)
	for i, m := range q.buf {
		if m != (Message{}) {
			t.Fatalf("slot %d of an empty ring holds %+v", i, m)
		}
	}
}

// BenchmarkHeadsPushPop is the head-dequeue layer: one arrival and one
// consumption per op on an in-edge holding a 256-deep backlog (the
// hotpath workload's credit window), the case the old slice-shift
// dequeue paid O(depth) for.
func BenchmarkHeadsPushPop(b *testing.B) {
	const depth = 256
	var q fifo[Message]
	q.grow(depth + 1) // the steady state: depth queued plus one arrival
	payload := any(42)
	for s := 0; s < depth; s++ {
		q.push(Message{Seq: uint64(s), Kind: Data, Payload: payload})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(Message{Seq: uint64(depth + i), Kind: Data, Payload: payload})
		q.pop(1)
	}
}
