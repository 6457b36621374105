package network

import (
	"testing"

	"df3/internal/sim"
)

func BenchmarkSendOneHop(b *testing.B) {
	e := sim.New()
	f, a, n := pairBench(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Send(a, n, 16e3, func(sim.Time) {})
		if e.Pending() > 1024 {
			e.Run(e.Now() + 1)
		}
	}
	e.Run(e.Now() + 1e6)
}

func BenchmarkSendMultiHop(b *testing.B) {
	e := sim.New()
	f, n := chain(e, LAN, Metro, Fibre)
	deliver := func(sim.Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Send(n[0], n[3], 16e3, deliver)
		if e.Pending() > 1024 {
			e.Run(e.Now() + 1)
		}
	}
	e.Run(e.Now() + 1e6)
}

func BenchmarkRouteCached(b *testing.B) {
	e := sim.New()
	f := NewFabric(e)
	nodes := make([]NodeID, 32)
	for i := range nodes {
		nodes[i] = f.AddNode("n")
	}
	for i := 1; i < len(nodes); i++ {
		f.Connect(nodes[i-1], nodes[i], LAN)
	}
	f.Route(nodes[0], nodes[31]) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Route(nodes[0], nodes[31])
	}
}

func pairBench(e *sim.Engine) (*Fabric, NodeID, NodeID) {
	f := NewFabric(e)
	a, b := f.AddNode("a"), f.AddNode("b")
	f.Connect(a, b, LAN)
	return f, a, b
}
