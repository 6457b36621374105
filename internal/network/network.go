// Package network models the communication fabric between IoT devices, DF
// servers, gateways and the remote datacenter.
//
// Links carry (latency, bandwidth) and serialise transfers FIFO: a message
// occupies the link for size/bandwidth seconds after waiting for earlier
// messages, then arrives latency later (store-and-forward per link). Routes
// are static paths configured by the scenario builder; the fabric delivers
// a message by walking its path hop by hop on the simulation engine.
//
// A hop costs no map lookup and no allocation. Node tables (names,
// adjacency, out-links, node state) are slices indexed by NodeID, and each
// link carries its class's loss probability. The route cache holds every
// path both as nodes and as resolved links; a generation counter, bumped by
// each topology change or fault, marks cached paths stale instead of
// discarding the cache. A message in flight is a pooled transfer record
// scheduled as a transient engine event, which fires in exactly the order
// a plain event would.
//
// Link classes follow the technologies the paper names (§III-B): building
// Ethernet LAN, fibre to the Qarnot middleware, metro WAN between city
// clusters, Internet to a remote datacenter, and the low-power IoT
// protocols (LoRa, Zigbee) for sensors.
package network

import (
	"fmt"

	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/trace"
	"df3/internal/units"
)

// NodeID identifies a network endpoint.
type NodeID int

// Link is a unidirectional channel between two nodes.
type Link struct {
	From, To NodeID
	// Latency is the propagation + protocol delay per message.
	Latency sim.Time
	// Bandwidth is bytes per second; <= 0 means infinite (no serialisation).
	Bandwidth float64
	// Class is the technology class name the link was built from
	// (per-class loss probabilities and fault processes key on it).
	Class string

	busyUntil sim.Time
	bytes     float64
	messages  int64
	down      bool
	// stage is the precomputed span label ("hop:"+Class), so tracing a hop
	// never concatenates strings on the hot path.
	stage string
	// epoch increments on every failure, so a message injected before an
	// outage is recognised as dead on arrival even if the link was
	// repaired while it was in flight.
	epoch uint32
	// loss is the message-loss probability of the link's class, kept in
	// step with the fabric's per-class table by SetLoss and Connect.
	loss float64
}

// transferTime returns when a message of size bytes injected at now departs
// the link (serialisation) and when it arrives at the far end.
func (l *Link) transferTime(now sim.Time, size units.Byte) (depart, arrive sim.Time) {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	ser := sim.Time(0)
	if l.Bandwidth > 0 {
		ser = sim.Time(float64(size) / l.Bandwidth)
	}
	depart = start + ser
	l.busyUntil = depart
	l.bytes += float64(size)
	l.messages++
	return depart, depart + l.Latency
}

// BytesCarried returns the cumulative traffic on the link.
func (l *Link) BytesCarried() float64 { return l.bytes }

// Messages returns the number of messages carried.
func (l *Link) Messages() int64 { return l.messages }

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// Class is a reusable (latency, bandwidth) pair for building links.
type Class struct {
	Name      string
	Latency   sim.Time
	Bandwidth float64 // bytes/s
}

// Technology classes with representative figures.
var (
	// LAN is building-internal gigabit Ethernet.
	LAN = Class{Name: "lan", Latency: 0.0005, Bandwidth: 125e6}
	// Fibre is the optic-fibre uplink of a Q.rad to the operator (§II-B1).
	Fibre = Class{Name: "fibre", Latency: 0.002, Bandwidth: 125e6}
	// Metro is a city-internal WAN hop between buildings/clusters.
	Metro = Class{Name: "metro", Latency: 0.005, Bandwidth: 60e6}
	// Internet is the path to a remote datacenter.
	Internet = Class{Name: "internet", Latency: 0.035, Bandwidth: 12e6}
	// Zigbee is a low-power mesh hop for in-building sensors.
	Zigbee = Class{Name: "zigbee", Latency: 0.015, Bandwidth: 31e3}
	// LoRa is a long-range low-power hop: tiny bandwidth, high latency.
	LoRa = Class{Name: "lora", Latency: 0.4, Bandwidth: 3.4e3}
	// BoilerNet is the 10 Gbps fabric inside an Asperitas boiler (§II-B2).
	BoilerNet = Class{Name: "boilernet", Latency: 0.0001, Bandwidth: 1.25e9}
)

// Fabric is a static-routing network on a simulation engine.
type Fabric struct {
	engine *sim.Engine
	// Node tables, indexed by NodeID. out[n] holds n's outgoing links in
	// Connect order — the adjacency route search walks, so routes are
	// deterministic.
	names []string
	out   [][]*Link
	// nodeDown marks failed endpoints (gateway outages): no message may
	// originate, terminate or transit there.
	nodeDown []bool

	// pairs records undirected links in Connect order, so scenario code
	// can enumerate the topology deterministically (fault arming).
	pairs [][2]NodeID
	// routes caches paths by routeKey. An entry is current while its gen
	// equals the fabric's; every topology change or fault bumps gen, so a
	// fault marks the whole cache stale without discarding it.
	routes map[uint64]*route
	gen    uint64
	// free is the pool of idle transfer records.
	free []*transfer

	// loss is the per-class message-loss probability, copied onto every
	// link of the class; draws come from lossRNG and happen only on links
	// with a positive probability, so a fabric with no loss configured
	// makes no draws at all.
	loss    map[string]float64
	lossRNG *rng.Stream
	lost    int64
	// OnLoss, when set, observes every dropped message: random wire loss,
	// messages dead on a failed link, and messages arriving at a failed
	// node. Scenario layers hook it to ledger counters.
	OnLoss func(from, to NodeID, size units.Byte)
	// Tracer, when set, records message and per-hop spans for sends made
	// through SendTraced. Plain Send/SendEx traffic is never spanned, so
	// only flows a caller opted into show up in the trace.
	Tracer *trace.Recorder
}

// route is one cached path: its nodes (endpoints included) and the links
// between them. Both are nil when the destination is unreachable.
type route struct {
	gen   uint64
	nodes []NodeID
	links []*Link
}

func routeKey(a, b NodeID) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// NewFabric returns an empty fabric.
func NewFabric(e *sim.Engine) *Fabric {
	return &Fabric{engine: e, routes: map[uint64]*route{}, loss: map[string]float64{}}
}

// AddNode registers a named endpoint and returns its id.
func (f *Fabric) AddNode(name string) NodeID {
	id := NodeID(len(f.names))
	f.names = append(f.names, name)
	f.out = append(f.out, nil)
	f.nodeDown = append(f.nodeDown, false)
	return id
}

// known reports whether id was issued by AddNode.
func (f *Fabric) known(id NodeID) bool { return id >= 0 && int(id) < len(f.names) }

// NodeName returns the registered name of a node ("" for an unknown id).
func (f *Fabric) NodeName(id NodeID) string {
	if !f.known(id) {
		return ""
	}
	return f.names[id]
}

// Connect adds a bidirectional link of the given class between a and b.
// Reconnecting an existing pair replaces the links' parameters and
// counters in place, so paths already resolved to them stay valid.
func (f *Fabric) Connect(a, b NodeID, c Class) {
	if !f.known(a) || !f.known(b) {
		panic(fmt.Sprintf("network: Connect of unknown node %d-%d", a, b))
	}
	ab, ba := f.Link(a, b), f.Link(b, a)
	if ab == nil {
		ab, ba = &Link{From: a, To: b}, &Link{From: b, To: a}
		f.out[a] = append(f.out[a], ab)
		f.out[b] = append(f.out[b], ba)
		f.pairs = append(f.pairs, [2]NodeID{a, b})
	}
	stage := "hop:" + c.Name
	for _, l := range [2]*Link{ab, ba} {
		*l = Link{From: l.From, To: l.To, Latency: c.Latency, Bandwidth: c.Bandwidth,
			Class: c.Name, stage: stage, epoch: l.epoch, loss: f.loss[c.Name]}
	}
	f.gen++
}

// Link returns the directed link a→b, or nil.
func (f *Fabric) Link(a, b NodeID) *Link {
	if !f.known(a) {
		return nil
	}
	for _, l := range f.out[a] {
		if l.To == b {
			return l
		}
	}
	return nil
}

// Pairs returns the undirected links in Connect order — the deterministic
// enumeration fault processes arm over.
func (f *Fabric) Pairs() [][2]NodeID { return f.pairs }

// ---------------------------------------------------------------------------
// Fault injection: link failures, node (gateway) failures, wire loss
// ---------------------------------------------------------------------------

// FailLink takes the bidirectional link a↔b out of service. Routes reroute
// around it (BFS skips dead links); messages already on the wire are
// dropped on arrival via the loss callback. Failing an unknown or already
// failed link is a no-op.
func (f *Fabric) FailLink(a, b NodeID) {
	for _, l := range [2]*Link{f.Link(a, b), f.Link(b, a)} {
		if l == nil || l.down {
			continue
		}
		l.down = true
		l.epoch++
	}
	f.gen++
}

// RestoreLink returns a failed link to service.
func (f *Fabric) RestoreLink(a, b NodeID) {
	for _, l := range [2]*Link{f.Link(a, b), f.Link(b, a)} {
		if l != nil {
			l.down = false
		}
	}
	f.gen++
}

// FailNode severs an endpoint: every route through it dies (a failed
// gateway cuts its whole building off the fabric), sends to or from it
// fail, and in-flight messages addressed to it are dropped on arrival.
// Failing an unknown or already failed node is a no-op.
func (f *Fabric) FailNode(n NodeID) {
	if !f.known(n) || f.nodeDown[n] {
		return
	}
	f.nodeDown[n] = true
	// Messages mid-flight on the node's links die with it.
	for _, l := range f.out[n] {
		f.FailLink(n, l.To)
	}
	f.gen++
}

// RestoreNode returns a failed endpoint (and its links) to service. Links
// individually failed by FailLink come back too: node repair re-provisions
// the attachment.
func (f *Fabric) RestoreNode(n NodeID) {
	if !f.NodeDown(n) {
		return
	}
	f.nodeDown[n] = false
	for _, l := range f.out[n] {
		// Only raise links whose far end is alive.
		if !f.nodeDown[l.To] {
			f.RestoreLink(n, l.To)
		}
	}
	f.gen++
}

// NodeDown reports whether the endpoint is failed (false for an unknown
// id).
func (f *Fabric) NodeDown(n NodeID) bool { return f.known(n) && f.nodeDown[n] }

// SetLoss sets the per-message loss probability for every link of the
// named class, including links connected later. Call SetLossRNG first; a
// fabric with no positive probabilities never draws from the stream,
// preserving determinism of loss-free scenarios.
func (f *Fabric) SetLoss(class string, p float64) {
	if p > 0 {
		f.loss[class] = p
	} else {
		delete(f.loss, class)
	}
	for _, links := range f.out {
		for _, l := range links {
			if l.Class == class {
				l.loss = p
			}
		}
	}
}

// SetLossRNG installs the random stream wire-loss draws come from.
func (f *Fabric) SetLossRNG(s *rng.Stream) { f.lossRNG = s }

// LostMessages returns how many messages the fabric has dropped (wire
// loss, failed links, failed destination nodes).
func (f *Fabric) LostMessages() int64 { return f.lost }

// Route computes (and caches) the minimum-hop path from a to b with BFS,
// routing around failed links and failed nodes. It returns nil when b is
// unreachable (including when either endpoint is down).
func (f *Fabric) Route(a, b NodeID) []NodeID {
	nodes, _ := f.route(a, b)
	return nodes
}

// route returns the current path a→b as nodes and links, searching on a
// cache miss or when the cached entry predates the last topology change.
func (f *Fabric) route(a, b NodeID) ([]NodeID, []*Link) {
	if f.NodeDown(a) || f.NodeDown(b) {
		return nil, nil
	}
	k := routeKey(a, b)
	r := f.routes[k]
	if r == nil {
		r = &route{}
		f.routes[k] = r
	} else if r.gen == f.gen {
		return r.nodes, r.links
	}
	// Fresh slices, never the stale entry's: messages in flight still
	// walk the links they were sent on.
	r.gen = f.gen
	r.nodes, r.links = f.search(a, b)
	return r.nodes, r.links
}

// search finds the minimum-hop path a→b by BFS over live links and nodes,
// visiting each node's links in Connect order. It returns nil slices when
// b is unreachable.
func (f *Fabric) search(a, b NodeID) ([]NodeID, []*Link) {
	if a == b {
		return []NodeID{a}, nil
	}
	if !f.known(a) || !f.known(b) {
		return nil, nil
	}
	// via[n] is the link the search first reached n over.
	via := make([]*Link, len(f.names))
	queue := []NodeID{a}
	for len(queue) > 0 && via[b] == nil {
		n := queue[0]
		queue = queue[1:]
		for _, l := range f.out[n] {
			if l.To == a || via[l.To] != nil || l.down || f.nodeDown[l.To] {
				continue
			}
			via[l.To] = l
			queue = append(queue, l.To)
		}
	}
	if via[b] == nil {
		return nil, nil
	}
	hops := 0
	for n := b; n != a; n = via[n].From {
		hops++
	}
	nodes := make([]NodeID, hops+1)
	links := make([]*Link, hops)
	nodes[0] = a
	for n, i := b, hops; i > 0; n, i = via[n].From, i-1 {
		nodes[i], links[i-1] = n, via[n]
	}
	return nodes, links
}

// SetRoute overrides the path between two endpoints (must start at a and
// end at b over existing links). The override holds until the next
// topology change or fault.
func (f *Fabric) SetRoute(a, b NodeID, path []NodeID) error {
	if len(path) < 1 || path[0] != a || path[len(path)-1] != b {
		return fmt.Errorf("network: path endpoints do not match %d..%d", a, b)
	}
	links := make([]*Link, len(path)-1)
	for i := range links {
		if links[i] = f.Link(path[i], path[i+1]); links[i] == nil {
			return fmt.Errorf("network: no link %d->%d on path", path[i], path[i+1])
		}
	}
	f.routes[routeKey(a, b)] = &route{gen: f.gen, nodes: path, links: links}
	return nil
}

// PathLatency returns the summed link latency a→b ignoring serialisation,
// or -1 when unreachable. Useful for admission decisions.
func (f *Fabric) PathLatency(a, b NodeID) sim.Time {
	nodes, links := f.route(a, b)
	if nodes == nil {
		return -1
	}
	var total sim.Time
	for _, l := range links {
		total += l.Latency
	}
	return total
}

// Send delivers a message of the given size from a to b, invoking deliver
// with the arrival time. It walks the path hop by hop, modelling per-link
// FIFO serialisation. Returns false (and does not schedule anything) when
// b is unreachable. When the fabric injects faults, an accepted message
// may still die on the wire and deliver will never fire; callers that must
// notice use SendEx.
func (f *Fabric) Send(a, b NodeID, size units.Byte, deliver func(at sim.Time)) bool {
	return f.SendEx(a, b, size, deliver, nil)
}

// SendEx is Send with a loss continuation: dropped (when non-nil) is
// invoked exactly once if the message dies in flight — random wire loss,
// a link that failed under it, or a destination node that failed before
// arrival. Exactly one of deliver and dropped eventually fires for every
// accepted message, which is what lets the middleware keep its
// request-conservation invariant under chaos.
func (f *Fabric) SendEx(a, b NodeID, size units.Byte, deliver func(at sim.Time), dropped func()) bool {
	return f.SendTraced(a, b, size, 0, deliver, dropped)
}

// SendTraced is SendEx with span correlation: when the fabric has a Tracer,
// the whole transfer becomes a "net" span (child of parent, e.g. a request's
// root span) and every hop a "hop:<class>" child, so per-request latency
// decomposes down to individual links in the trace. With no Tracer it is
// exactly SendEx — the span ids stay zero and every span call no-ops.
func (f *Fabric) SendTraced(a, b NodeID, size units.Byte, parent trace.SpanID, deliver func(at sim.Time), dropped func()) bool {
	nodes, links := f.route(a, b)
	if nodes == nil {
		if f.Tracer != nil {
			f.Tracer.Instant(f.engine.Now(), "net:unreachable", 0, parent,
				f.NodeName(a)+"→"+f.NodeName(b))
		}
		return false
	}
	t := f.newTransfer()
	t.links, t.size, t.deliver, t.dropped = links, size, deliver, dropped
	if len(links) == 0 { // local delivery
		f.engine.AfterTransient(0, t.arrive)
		return true
	}
	if f.Tracer != nil {
		t.msg = f.Tracer.BeginSpan(f.engine.Now(), "net", 0, parent)
	}
	f.hop(t)
	return true
}

// transfer is one message in flight: the links of its path, the hop it
// is on, and what that hop captured at injection. Records are pooled per
// fabric, and arrive is bound once when a record is made, so forwarding a
// message allocates nothing.
type transfer struct {
	f       *Fabric
	links   []*Link
	i       int // index into links of the hop in flight
	size    units.Byte
	deliver func(at sim.Time)
	dropped func()
	// msg is the transfer's span and hs the current hop's (0 untraced).
	msg, hs trace.SpanID
	// epoch is links[i].epoch at injection; lose is the hop's loss draw.
	epoch  uint32
	lose   bool
	arrive func()
}

// newTransfer takes a record from the pool, making one when it is empty.
func (f *Fabric) newTransfer() *transfer {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		return t
	}
	t := &transfer{f: f}
	t.arrive = t.land
	return t
}

// release returns t to the pool, cleared so its callbacks' captures stay
// collectable.
func (f *Fabric) release(t *transfer) {
	*t = transfer{f: f, arrive: t.arrive}
	f.free = append(f.free, t)
}

// hop injects t into links[t.i] and schedules its arrival at the far end.
func (f *Fabric) hop(t *transfer) {
	l := t.links[t.i]
	now := f.engine.Now()
	if l.down || f.nodeDown[l.From] || f.nodeDown[l.To] {
		// The path decayed under a multi-hop message: it dies at the dead
		// hop, like a frame forwarded into a downed port.
		if t.msg != 0 {
			f.Tracer.EndSpanDetail(now, t.msg, "lost:dead-hop")
		}
		f.drop(t, l)
		return
	}
	// Random wire loss: drawn at injection, manifested at arrival time (a
	// corrupt frame still occupies the pipe).
	t.lose = l.loss > 0 && f.lossRNG != nil && f.lossRNG.Float64() < l.loss
	t.epoch = l.epoch
	_, at := l.transferTime(now, t.size)
	if t.msg != 0 {
		t.hs = f.Tracer.BeginSpan(now, l.stage, 0, t.msg)
	}
	f.engine.AtTransient(at, t.arrive)
}

// land completes the hop in flight, if any, then forwards t or ends it.
// The record returns to the pool before deliver or dropped runs, so a
// callback may send again at once.
func (t *transfer) land() {
	f := t.f
	now := f.engine.Now()
	if len(t.links) > 0 {
		l := t.links[t.i]
		// A link that failed while the message was in flight ate it, even
		// if the link was repaired before the arrival instant.
		if t.lose || l.down || l.epoch != t.epoch || f.nodeDown[l.To] {
			if t.msg != 0 {
				f.Tracer.EndSpanDetail(now, t.hs, "lost")
				f.Tracer.EndSpanDetail(now, t.msg, "lost")
			}
			f.drop(t, l)
			return
		}
		if t.msg != 0 {
			f.Tracer.EndSpan(now, t.hs)
		}
		if t.i++; t.i < len(t.links) {
			f.hop(t)
			return
		}
		if t.msg != 0 {
			f.Tracer.EndSpanDetail(now, t.msg, "delivered")
		}
	}
	deliver := t.deliver
	f.release(t)
	deliver(now)
}

// drop ends t as lost on link l: it counts the loss, then notifies OnLoss
// and t's loss continuation.
func (f *Fabric) drop(t *transfer, l *Link) {
	size, dropped := t.size, t.dropped
	f.release(t)
	f.lost++
	if f.OnLoss != nil {
		f.OnLoss(l.From, l.To, size)
	}
	if dropped != nil {
		dropped()
	}
}
