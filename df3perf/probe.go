package main

import (
	"net"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"df3/internal/shard"
	"df3/internal/sim"
)

// heapSampler tracks the peak Go heap by sampling runtime/metrics on its
// own goroutine. It reads the heap goal — the heap size the collector
// lets the program grow to before the next cycle, so the heap's peak
// between collections — because the goal holds steady between cycles
// where the momentary heap size races the sampler.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	peak    atomic.Uint64
	samples atomic.Int64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
			h.samples.Add(1)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap returns the peak since the previous lap, or since the start, in MB
// of 2^20 bytes, and starts the next lap.
func (h *heapSampler) lap() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

// close stops the sampler and returns how many readings it took.
func (h *heapSampler) close() int {
	close(h.stop)
	<-h.done
	return int(h.samples.Load())
}

// cpuNow returns the host CPU time, user and system, the whole process
// has used so far. When other tenants of the host take a core away, a
// step's CPU time grows far less than its wall time does.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usPerEvent is CPU time per simulated event, in µs.
func usPerEvent(cpu time.Duration, events uint64) float64 {
	return cpu.Seconds() * 1e6 / float64(max(events, 1))
}

// runtimeCounters is a runtime/metrics reading whose deltas attribute
// allocation and GC cost to a measured region.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

// setRuntimeDelta records the runtime layer's metrics for the region
// between two readings, per simulated event.
func setRuntimeDelta(r *report, before, after runtimeCounters, events uint64) {
	if events == 0 {
		events = 1
	}
	r.set("runtime.alloc_bytes_per_event", float64(after.allocBytes-before.allocBytes)/float64(events), int(events))
	r.set("runtime.allocs_per_event", float64(after.allocObjects-before.allocObjects)/float64(events), int(events))
	r.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), 1)
	r.set("runtime.gc_cpu_s", after.gcCPU-before.gcCPU, 1)
}

// span is one timed call at a layer boundary. Spans of one window or
// request share an id; parent is the index of the span that encloses it,
// or -1.
type span struct {
	name       string
	id         int64
	parent     int
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run the same code. Spans begun
// while an entered span is open are its children.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  int
}

func newTracer() *tracer { return &tracer{open: -1} }

// record appends a finished span under the open span.
func (t *tracer) record(name string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: t.open, start: start, end: end})
	t.mu.Unlock()
}

// enter opens a span that encloses every span recorded until exit.
func (t *tracer) enter(name string, id int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: t.open, start: wall.Now()})
	t.open = len(t.spans) - 1
	return t.open
}

// exit closes the span enter opened.
func (t *tracer) exit(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = wall.Now()
	t.open = t.spans[i].parent
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, id int64, fn func()) {
	i := t.enter(name, id)
	fn()
	t.exit(i)
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// phaseWalls groups the spans of one name by id — one barrier round
// across every partition — and returns each round's wall time, from the
// first call's start to the last call's end, in round order.
func phaseWalls(spans []span) []time.Duration {
	type bounds struct{ start, end time.Time }
	rounds := map[int64]bounds{}
	var ids []int64
	for _, s := range spans {
		b, ok := rounds[s.id]
		if !ok {
			ids = append(ids, s.id)
			b = bounds{start: s.start, end: s.end}
		}
		if s.start.Before(b.start) {
			b.start = s.start
		}
		if s.end.After(b.end) {
			b.end = s.end
		}
		rounds[s.id] = b
	}
	out := make([]time.Duration, len(ids))
	for i, id := range ids {
		b := rounds[id]
		out[i] = b.end.Sub(b.start)
	}
	return out
}

// timedPart wraps a shard.Part and records a span around each barrier
// call. Every part runs every window, so the count of windows a part has
// run numbers the barrier rounds alike on all parts: the spans of one
// window — its propose, window and deliver calls on every part — share
// that id. shard.Sync calls each Part from one goroutine at a time, so
// the counters need no lock.
type timedPart struct {
	p       shard.Part
	tr      *tracer
	windows int64
	calls   int64
}

func (t *timedPart) OwnedLPs() ([]int, error) { return t.p.OwnedLPs() }

func (t *timedPart) NextEvent() (sim.Time, bool, error) {
	start := wall.Now()
	at, has, err := t.p.NextEvent()
	t.done("propose", t.windows, start)
	return at, has, err
}

func (t *timedPart) RunWindow(end sim.Time) (shard.WindowResult, error) {
	start := wall.Now()
	res, err := t.p.RunWindow(end)
	t.done("window", t.windows, start)
	t.windows++
	return res, err
}

func (t *timedPart) Deliver(batch []shard.Msg) error {
	start := wall.Now()
	err := t.p.Deliver(batch)
	t.done("deliver", t.windows-1, start)
	return err
}

func (t *timedPart) done(name string, id int64, start time.Time) {
	t.tr.record(name, id, start, wall.Now())
	t.calls++
}

// serviceConn is the worker end of one wire connection. It measures the
// worker's own service time per request — from the read that completed
// the request to the first write of the reply — and the bytes moved.
// Only the serving goroutine touches lastRead and pending; the totals are
// atomics because the coordinator reads them while the session runs.
type serviceConn struct {
	net.Conn
	lastRead time.Time
	pending  bool
	service  atomic.Int64 // ns
	bytes    atomic.Int64
}

func (c *serviceConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	if n > 0 {
		c.lastRead = wall.Now()
		c.pending = true
	}
	return n, err
}

func (c *serviceConn) Write(p []byte) (int, error) {
	if c.pending {
		c.service.Add(int64(wall.Now().Sub(c.lastRead)))
		c.pending = false
	}
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
