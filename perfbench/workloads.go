package main

import (
	"fmt"
	"math/rand"

	"streamdag"
	"streamdag/internal/graph"
	"streamdag/internal/workload"
)

// spec is one workload: a fixed topology and backend, the user kernels
// generated from the seed, and the loop that drives sessions into it.
type spec struct {
	name string
	alg  streamdag.Algorithm
	// topo is fixed per workload, so runs on different seeds measure the
	// same network; the seed drives filters and payloads.
	topo    func() *streamdag.Topology
	kernels func(t *streamdag.Topology, seed uint64) map[streamdag.NodeID]streamdag.Kernel
	// assign places nodes on loopback-TCP workers for the distributed
	// backend; nil runs the goroutine backend.
	assign map[string]string
	batch  int
	// perSession inputs per session.  clients > 0 makes a closed loop of
	// that many clients; otherwise sessions arrive at rate per second.
	perSession uint64
	clients    int
	rate       float64
	// edgeTag prefixes this workload's per-edge metric names; empty means
	// the workload declares none.
	edgeTag string
}

var specs = map[string]*spec{
	"hotpath":   hotpath(),
	"filtered":  filtered(),
	"serve-tcp": serveTCP(),
}

// hotpath: gen → work → out, identity map kernel, batch 1, no filtering.
func hotpath() *spec {
	return &spec{
		name: "hotpath",
		alg:  streamdag.Propagation,
		topo: func() *streamdag.Topology {
			t := streamdag.NewTopology()
			t.Channel("gen", "work", 256)
			t.Channel("work", "out", 256)
			return t
		},
		kernels: func(t *streamdag.Topology, _ uint64) map[streamdag.NodeID]streamdag.Kernel {
			return map[streamdag.NodeID]streamdag.Kernel{
				t.Node("work"): streamdag.MapKernel(1, func(v any) any { return v }),
			}
		},
		batch:      1,
		perSession: 50_000,
		clients:    1,
	}
}

// filteredTopology is workload.RandomCS4 on generator seed 1 with 4
// parts: 15 nodes, 27 edges, two SP and two ladder components.
func filteredTopology() *streamdag.Topology {
	g := workload.RandomCS4(rand.New(rand.NewSource(1)), 4, 4, 0.5)
	t := streamdag.NewTopology()
	for n := 0; n < g.NumNodes(); n++ {
		t.Node(g.Name(graph.NodeID(n)))
	}
	for _, e := range g.Edges() {
		t.Channel(g.Name(e.From), g.Name(e.To), e.Buf)
	}
	return t
}

// filtered: every node forwards on each out-edge with a seeded per-edge
// Bernoulli keep of 0.7.  Per-edge filtering at every node is sound
// under NonPropagation only (Propagation places timers at cycle sources
// and deadlocks here), so the workload runs that protocol.
func filtered() *spec {
	return &spec{
		name: "filtered",
		alg:  streamdag.NonPropagation,
		topo: filteredTopology,
		kernels: func(t *streamdag.Topology, seed uint64) map[streamdag.NodeID]streamdag.Kernel {
			return streamdag.RouteKernels(t, streamdag.Bernoulli(0.7, seed))
		},
		batch:      64,
		perSession: 5_000,
		clients:    2,
		edgeTag:    "f",
	}
}

// serveTCP: ingest → A, then the Fig. 2 triangle A → B → C plus the
// chord A → C, with A routing by a seeded Bernoulli per out-edge.  A and
// ingest run on worker w0, B and C on w1, so data and dummies cross TCP.
func serveTCP() *spec {
	return &spec{
		name: "serve-tcp",
		alg:  streamdag.Propagation,
		topo: func() *streamdag.Topology {
			t := streamdag.NewTopology()
			t.Channel("ingest", "A", 64)
			t.Channel("A", "B", 8)
			t.Channel("B", "C", 8)
			t.Channel("A", "C", 8)
			return t
		},
		kernels: func(t *streamdag.Topology, seed uint64) map[streamdag.NodeID]streamdag.Kernel {
			a := t.Node("A")
			keep := streamdag.Bernoulli(0.7, seed)
			return streamdag.RouteKernels(t, func(n streamdag.NodeID, seq uint64, e streamdag.EdgeID) bool {
				return n != a || keep(n, seq, e)
			})
		},
		assign:     map[string]string{"ingest": "w0", "A": "w0", "B": "w1", "C": "w1"},
		batch:      64,
		perSession: 256,
		rate:       100,
		edgeTag:    "tcp",
	}
}

// overTCP reports whether the workload runs on the distributed backend.
func (sp *spec) overTCP() bool { return sp.assign != nil }

func (sp *spec) backend() streamdag.Backend {
	if sp.overTCP() {
		return streamdag.Distributed(sp.assign)
	}
	return streamdag.Goroutines()
}

// edgeMetricNames returns the per-edge metric suffix of every edge of t,
// "<tag>.e<id>_<from>-<to>", in edge-ID order (parallel edges share
// endpoints, so the ID keeps names unique).
func edgeMetricNames(tag string, t *streamdag.Topology) []string {
	n := t.Graph().NumEdges()
	out := make([]string, n)
	for i := 0; i < n; i++ {
		from, to, _ := t.Edge(streamdag.EdgeID(i))
		out[i] = fmt.Sprintf("%s.e%d_%s-%s", tag, i, from, to)
	}
	return out
}
