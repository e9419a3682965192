package stream

import (
	"sync/atomic"
	"testing"

	"streamdag/internal/graph"
	"streamdag/internal/workload"
)

// FireOnceBench is the firing layer's benchmark harness: b.N times, one
// data message arrives at the middle node of a gen → work → out chain
// running kernel k, and fireOnce consumes it — head dequeue, kernel
// call, protocol step, send — after which the credit is returned.  It
// drives the node directly, outside any node loop, on a closed engine
// whose mailboxes discard the posted sends.
func FireOnceBench(b *testing.B, k Kernel) {
	e, err := NewEngine(workload.Pipeline(3, 256), map[graph.NodeID]Kernel{1: k}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	e.Close()
	n := e.nodes[1]
	edges := e.g.NumEdges()
	ses := &EngineSession{
		id: 1, e: e,
		data: make([]int64, edges), dummies: make([]int64, edges),
		occupancy: make([]atomic.Int64, edges),
	}
	n.absorb(event{kind: evOpen, ses: ses})
	ns := n.sess[1]
	payload := any(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.heads[0].push(Message{Seq: uint64(i), Kind: Data, Payload: payload})
		if !n.fireOnce(ns) {
			b.Fatal("aligned head did not fire")
		}
		ns.inflight[0] = 0
		n.creditAcc[0] = 0
	}
}
