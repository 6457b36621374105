package network

import (
	"fmt"
	"strings"
	"testing"

	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/trace"
)

// chain builds n nodes wired in a line with the given classes, one per
// link: chain(e, LAN, Metro) is n0 -lan- n1 -metro- n2.
func chain(e *sim.Engine, classes ...Class) (*Fabric, []NodeID) {
	f := NewFabric(e)
	nodes := make([]NodeID, len(classes)+1)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("n%d", i))
	}
	for i, c := range classes {
		f.Connect(nodes[i], nodes[i+1], c)
	}
	return f, nodes
}

// A traced multi-hop send decomposes into one "net" span and one
// "hop:<class>" child per link; losses end both with their cause. The
// golden lines pin the span tree, timings and details.
func TestTracedMultiHopSpans(t *testing.T) {
	e := sim.New()
	f, n := chain(e, LAN, Metro, Fibre)
	rec := trace.NewRecorder(0)
	f.Tracer = rec
	root := rec.BeginSpan(0, "request", 1, 0)

	// Delivered across three hops.
	f.SendTraced(n[0], n[3], 1000, root, func(sim.Time) {}, nil)
	// Dies on the wire: the metro link fails while the message is on it.
	e.At(0.1, func() { f.SendTraced(n[0], n[3], 1000, root, func(sim.Time) {}, func() {}) })
	e.At(0.1008, func() { f.FailLink(n[1], n[2]) })
	e.At(0.2, func() { f.RestoreLink(n[1], n[2]) })
	// Dies at a dead hop: the far link fails before the message reaches it.
	e.At(0.3, func() { f.SendTraced(n[0], n[3], 1000, root, func(sim.Time) {}, func() {}) })
	e.At(0.3002, func() { f.FailLink(n[2], n[3]) })
	// Unreachable while that link is down.
	e.At(0.4, func() { f.SendTraced(n[0], n[3], 1000, root, func(sim.Time) {}, nil) })
	e.Run(1)
	rec.EndSpan(1, root)

	var got strings.Builder
	for _, sp := range rec.Spans() {
		line := fmt.Sprintf("%d<-%d %s %.7f %.7f %s", sp.ID, sp.Parent, sp.Stage, sp.Begin, sp.End, sp.Detail)
		got.WriteString(strings.TrimSpace(line) + "\n")
	}
	want := `3<-2 hop:lan 0.0000000 0.0005080
4<-2 hop:metro 0.0005080 0.0055247
5<-2 hop:fibre 0.0055247 0.0075327
2<-1 net 0.0000000 0.0075327 delivered
7<-6 hop:lan 0.1000000 0.1005080
8<-6 hop:metro 0.1005080 0.1055247 lost
6<-1 net 0.1000000 0.1055247 lost
10<-9 hop:lan 0.3000000 0.3005080
11<-9 hop:metro 0.3005080 0.3055247
9<-1 net 0.3000000 0.3055247 lost:dead-hop
12<-1 net:unreachable 0.4000000 0.4000000 n0→n3
1<-0 request 0.0000000 1.0000000
`
	if got.String() != want {
		t.Fatalf("spans:\n%s\nwant:\n%s", got.String(), want)
	}
}

// A deliver callback that sends again reuses the in-flight record that
// just completed; every message must still arrive exactly once.
func TestDeliverCallbackSendsAgain(t *testing.T) {
	e := sim.New()
	f, n := chain(e, LAN, Metro)
	var arrivals []sim.Time
	var bounce func(left int) func(sim.Time)
	bounce = func(left int) func(sim.Time) {
		return func(at sim.Time) {
			arrivals = append(arrivals, at)
			if left == 0 {
				return
			}
			src, dst := n[0], n[2]
			if left%2 == 1 {
				src, dst = dst, src
			}
			// Two sends from inside the callback: the second must not
			// reuse the record the first one took.
			f.Send(src, dst, 0, bounce(left-1))
			f.Send(src, src, 0, func(sim.Time) { arrivals = append(arrivals, -1) })
		}
	}
	f.Send(n[0], n[2], 0, bounce(4))
	e.Run(10)
	hop := LAN.Latency + Metro.Latency
	want := []sim.Time{hop, -1, 2 * hop, -1, 3 * hop, -1, 4 * hop, -1, 5 * hop}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	for i := range want {
		if d := arrivals[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
	if f.LostMessages() != 0 {
		t.Fatalf("LostMessages = %d, want 0", f.LostMessages())
	}
}

// A link failed and restored while a message is on it drops the message
// even though the restore recomputed the route in between: the epoch the
// transfer captured at injection, not the route cache, decides.
func TestFailRestoreInFlightAcrossRouteInvalidation(t *testing.T) {
	e := sim.New()
	f, n := chain(e, Class{Name: "t", Latency: 0.010}, Class{Name: "t", Latency: 0.010})
	delivered, dropped := 0, 0
	f.SendEx(n[0], n[2], 100, func(sim.Time) { delivered++ }, func() { dropped++ })
	e.At(0.002, func() {
		f.FailLink(n[0], n[1])
		if f.Route(n[0], n[2]) != nil {
			t.Error("route survives a failed link")
		}
	})
	e.At(0.004, func() {
		f.RestoreLink(n[0], n[1])
		if len(f.Route(n[0], n[2])) != 3 {
			t.Error("route not recomputed after restore")
		}
		// A fresh message on the restored link gets through.
		f.SendEx(n[0], n[2], 100, func(sim.Time) { delivered++ }, func() { dropped++ })
	})
	e.Run(1)
	if delivered != 1 || dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d, want 1 and 1", delivered, dropped)
	}
}

// SetLoss takes effect on links of its class whether they are connected
// before or after the call, and clearing it reaches every link.
func TestSetLossBeforeAndAfterConnect(t *testing.T) {
	e := sim.New()
	f := NewFabric(e)
	f.SetLossRNG(rng.New(3))
	a, b, c := f.AddNode("a"), f.AddNode("b"), f.AddNode("c")
	lossy := Class{Name: "lossy", Latency: 0.001}
	f.Connect(a, b, lossy)
	f.SetLoss("lossy", 1)
	f.Connect(b, c, lossy)
	for _, p := range [][2]NodeID{{a, b}, {b, c}, {c, b}} {
		ok := f.SendEx(p[0], p[1], 10, func(sim.Time) { t.Errorf("%v delivered at loss 1", p) }, func() {})
		if !ok {
			t.Fatalf("%v refused", p)
		}
	}
	e.Run(1)
	if f.LostMessages() != 3 {
		t.Fatalf("LostMessages = %d, want 3", f.LostMessages())
	}
	f.SetLoss("lossy", 0)
	delivered := 0
	f.Send(a, c, 10, func(sim.Time) { delivered++ })
	e.Run(2)
	if delivered != 1 {
		t.Fatal("message lost after clearing the class's loss")
	}
}

// Lookups of ids the fabric never issued answer like an unknown node.
func TestUnknownNodeLookups(t *testing.T) {
	e := sim.New()
	f, n := chain(e, LAN)
	for _, id := range []NodeID{-1, 2, 99} {
		if name := f.NodeName(id); name != "" {
			t.Errorf("NodeName(%d) = %q, want empty", id, name)
		}
		if f.NodeDown(id) {
			t.Errorf("NodeDown(%d) = true", id)
		}
		if f.Link(n[0], id) != nil || f.Link(id, n[0]) != nil {
			t.Errorf("Link to unknown %d is not nil", id)
		}
		if f.Route(n[0], id) != nil || f.Send(id, n[0], 1, func(sim.Time) {}) {
			t.Errorf("unknown %d is reachable", id)
		}
	}
}

// Steady-state sends with static callbacks allocate nothing, over one hop
// and over several.
func TestSendAllocFree(t *testing.T) {
	deliver := func(sim.Time) {}
	dropped := func() {}
	for _, tc := range []struct {
		name    string
		classes []Class
	}{
		{"one-hop", []Class{LAN}},
		{"three-hop", []Class{LAN, Metro, Fibre}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			f, n := chain(e, tc.classes...)
			src, dst := n[0], n[len(n)-1]
			send := func() {
				f.SendEx(src, dst, 16e3, deliver, dropped)
				e.Run(e.Now() + 1)
			}
			send() // warm the route cache, transfer pool and event pool
			if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
				t.Fatalf("%v allocs per send, want 0", allocs)
			}
		})
	}
}
