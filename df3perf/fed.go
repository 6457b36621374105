package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"df3/internal/city"
	"df3/internal/shard"
	"df3/internal/sim"
	"df3/internal/wire"
)

// defaultSeed is the seed whose serial reference checksums are committed
// below; any other seed computes its reference before the timed region.
const defaultSeed = 1

// references are the serial (1 shard, 1 partition) federation checksums
// of each batch workload's full-size spec at the default seed.
var references = map[string]uint64{
	"fed_edge": 0xb865acc0bbb18b98,
	"fed_wire": 0xb50172eb7c7f0e21,
}

// step is the simulated time fed_edge advances per unit of service.
const step = 10 * sim.Minute

// size scales the workloads: full for the benchmark, tiny for the
// self-test.
type size struct {
	name string
	// edgeDays and wireDays are the traffic horizons of fed_edge and
	// fed_wire; every run also drains for Spec.Until's margin.
	edgeDays, wireDays float64
	// minReps is the fewest repetitions a batch run makes.
	minReps int
	// setups is how many set-ups every run times besides those of its
	// measured repetitions, so setup_s is a median of many.
	setups int
	// live_ingest: the nominal open-loop rate, the ramp's rates, the
	// checkpoint period in simulated seconds, and the fewest recoveries a
	// run makes (it recovers for a fifth of its seconds).
	liveRate        float64
	rampRates       []float64
	checkpointEvery sim.Time
	recoveries      int
}

var full = size{
	name:     "full",
	edgeDays: 0.5, wireDays: 1,
	minReps:         3,
	liveRate:        4000,
	rampRates:       []float64{6000, 7500, 9400, 11700, 14600, 18300, 22900, 28600, 35800, 44700, 55900},
	checkpointEvery: 60,
	recoveries:      3,
	setups:          50,
}

var tiny = size{
	name:     "tiny",
	edgeDays: 0.02, wireDays: 0.02,
	minReps:         2,
	liveRate:        300,
	rampRates:       []float64{400, 600},
	checkpointEvery: 10,
	recoveries:      2,
	setups:          2,
}

// fedSpec is a batch workload's scenario: 4 cities of 4 buildings × 6
// rooms, DCC 6 jobs/h and inter-city offload 2 jobs/h per city, at full
// edge rate for fed_edge and 0.2× for fed_wire. The program receives
// only this generated spec.
func fedSpec(cfg config) city.Spec {
	edge, days := 1.0, cfg.size.edgeDays
	if cfg.workload == "fed_wire" {
		edge, days = 0.2, cfg.size.wireDays
	}
	return city.Spec{
		Seed:   cfg.stream("spec").Uint64(),
		Cities: 4, Buildings: 4, Rooms: 6,
		Days: days, EdgeRate: edge, DCCRate: 6, InterCity: 2,
	}
}

// steps is a stepped run's cost: the host CPU time of each step, in
// ms, and the run's total wall and CPU time.
type steps struct {
	cpuMs     []float64
	wall, cpu time.Duration
}

// stepRun advances an in-process federation to until one step at a
// time, timing each.
func stepRun(f *city.Federation, until sim.Time, tr *tracer) steps {
	var st steps
	start, cpuStart := wall.Now(), cpuNow()
	prev := cpuStart
	for t, i := sim.Time(0), int64(0); t < until; i++ {
		t += step
		if t > until {
			t = until
		}
		span := tr.enter("step", i)
		f.Run(t)
		tr.exit(span)
		c := cpuNow()
		st.cpuMs = append(st.cpuMs, ms(c-prev))
		prev = c
	}
	st.wall, st.cpu = since(start), prev-cpuStart
	return st
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// serialReference builds the spec on 1 shard and runs it to the end in
// one Run call. The checksum does not depend on how a run is cut into
// calls, so it is the reference of fed_edge's stepped runs too.
func serialReference(spec city.Spec) *city.Federation {
	f := spec.Build(1)
	f.Run(spec.Until())
	return f
}

// reference returns the checksum every repetition must reproduce: the
// committed one for the default seed at full size, otherwise a serial run
// made before the timed region.
func reference(cfg config, spec city.Spec) uint64 {
	if sum, ok := references[cfg.workload]; ok && cfg.seed == defaultSeed && cfg.size.name == full.name {
		return sum ^ cfg.refShift
	}
	return serialReference(spec).Checksum() ^ cfg.refShift
}

// exactCounts collects the † counts of each repetition; they are
// deterministic in the spec, so any difference between repetitions is a
// failed gate.
type exactCounts struct {
	names []string
	vals  map[string][]float64
}

func newExactCounts() *exactCounts { return &exactCounts{vals: map[string][]float64{}} }

func (e *exactCounts) add(name string, v float64) {
	if _, ok := e.vals[name]; !ok {
		e.names = append(e.names, name)
	}
	e.vals[name] = append(e.vals[name], v)
}

// report gates on every count repeating, in every pass, and records the
// counts' values when emit is set.
func (e *exactCounts) report(r *report, emit bool) {
	for _, name := range e.names {
		vs := e.vals[name]
		for i, v := range vs {
			r.gate(v == vs[0], "%s is deterministic but read %v in repetition %d and %v in repetition 0", name, v, i, vs[0])
		}
		if emit {
			r.set(name, vs[0], len(vs))
		}
	}
}

// addStateCounts records the core and sim counts of a finished run.
func (e *exactCounts) addStateCounts(states []city.CityState) {
	s := city.SummarizeStates(states)
	e.add("sim.events", float64(s.EventsFired))
	e.add("core.edge_submitted", float64(s.EdgeSubmitted))
	served := 0.0
	if s.EdgeSubmitted > 0 {
		served = float64(s.EdgeServed) / float64(s.EdgeSubmitted)
	}
	e.add("core.edge_served_frac", served)
	e.add("core.dcc_jobs_done", float64(s.JobsDone))
	e.add("core.dcc_jobs_lost", float64(s.JobsLost))
}

// addFabricCounts records the counts only a federation's own cities
// hold: edge retries and messages the city networks lost.
func (e *exactCounts) addFabricCounts(f *city.Federation) {
	var retries, lost int64
	for _, c := range f.Cities {
		retries += c.MW.Edge.Retries.Value()
		lost += c.Net.LostMessages()
	}
	e.add("core.edge_retries", float64(retries))
	e.add("network.lost_messages", float64(lost))
}

// runFedEdge measures the in-process sharded kernel: build the spec on 2
// shards, run it to the end through Federation.Run, check the checksum,
// repeat until the seconds are spent.
func runFedEdge(cfg config) (*report, error) {
	spec := fedSpec(cfg)
	want := reference(cfg, spec)
	r := newReport("cpu_us_per_event", false)
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	var tr *tracer
	var prof *cpuProfile
	if cfg.trace {
		tr = newTracer()
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	heap := startHeapSampler()
	exact := newExactCounts()
	var setups, rates, cpuPerEvent, p50s, p99s, busy, idle []float64
	for i := 0; i < cfg.size.setups; i++ {
		if i%setupsPerProbe == 0 {
			cal.probe()
		}
		t0 := wall.Now()
		tr.timed("build", -1, func() { spec.Build(2) })
		setups = append(setups, since(t0).Seconds())
	}
	var rtRun runtimeCounters
	var events uint64
	var peaks []float64
	heap.lap() // the set-ups' peak is not a run's
	start := wall.Now()
	for rep := int64(0); rep < int64(cfg.size.minReps) || since(start).Seconds() < cfg.seconds; rep++ {
		runtime.GC() // each repetition starts from a collected heap
		cal.probe()
		var f *city.Federation
		t0 := wall.Now()
		tr.timed("build", rep, func() { f = spec.Build(2) })
		setups = append(setups, since(t0).Seconds())
		if cfg.trace {
			f.Kernel.EnableProfile()
		}
		rt0 := readRuntime()
		st := stepRun(f, spec.Until(), tr)
		rt1 := readRuntime()
		peaks = append(peaks, heap.lap())
		rtRun = addRuntime(rtRun, rt0, rt1)
		p50s = append(p50s, quantile(st.cpuMs, 0.5))
		p99s = append(p99s, quantile(st.cpuMs, 0.99))

		states := f.CityStates()
		got := city.ChecksumStates(states)
		r.gate(got == want, "repetition %d: checksum %#x, serial reference %#x", rep, got, want)
		r.op(got != want)
		sum := city.SummarizeStates(states)
		events += sum.EventsFired
		rates = append(rates, float64(sum.EventsFired)/st.wall.Seconds())
		cpuPerEvent = append(cpuPerEvent, usPerEvent(st.cpu, sum.EventsFired))
		exact.addStateCounts(states)
		exact.addFabricCounts(f)
		ks := f.Kernel.Stats()
		exact.add("shard.windows", float64(ks.Windows))
		exact.add("shard.critical_path_speedup", ks.Speedup())
		if pr, ok := f.Kernel.ProfileReport(); ok {
			var b, i time.Duration
			for _, sp := range pr.Shards {
				b += sp.Busy
				i += sp.Idle
			}
			busy = append(busy, b.Seconds())
			idle = append(idle, i.Seconds())
		}
	}
	cal.probe()
	r.set("heap_peak_mb", median(peaks), heap.close())
	setBatchMetrics(r, cal, setups, rates, cpuPerEvent, p50s, p99s)
	exact.report(r, cfg.trace)
	if cfg.trace {
		if err := prof.stop(r); err != nil {
			return nil, err
		}
		setRuntimeDelta(r, runtimeCounters{}, rtRun, events)
		r.set("shard.busy_s", median(busy), len(busy))
		r.set("shard.idle_s", median(idle), len(idle))
		r.set("trace.spans", float64(tr.count()), tr.count())
	}
	return r, nil
}

// addRuntime accumulates the delta between two readings into acc.
func addRuntime(acc, before, after runtimeCounters) runtimeCounters {
	acc.allocBytes += after.allocBytes - before.allocBytes
	acc.allocObjects += after.allocObjects - before.allocObjects
	acc.gcCycles += after.gcCycles - before.gcCycles
	acc.gcCPU += after.gcCPU - before.gcCPU
	return acc
}

// wireRig is one multi-node run inside the harness: a unix-socket
// listener and a wire.Serve session per partition, as df3node hosts one,
// and a wire.Client per partition on the coordinator side.
type wireRig struct {
	paths     []string
	lns       []net.Listener
	conns     []*serviceConn
	clients   []*wire.Client
	served    chan error
	lookahead sim.Time
}

// wireTimeout bounds every round trip; a wedged session fails the run
// instead of hanging it.
const wireTimeout = 60 * time.Second

// startWire listens, serves and assigns one partition per owned block,
// returning once every worker has answered Ready.
func startWire(dir string, spec city.Spec, owned [][]int) (*wireRig, error) {
	w := &wireRig{served: make(chan error, len(owned))}
	accepted := make(chan *serviceConn, len(owned))
	for i := range owned {
		path := filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
		_ = os.Remove(path) // a stale socket from a killed run
		ln, err := net.Listen("unix", path)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("wire listen: %w", err)
		}
		w.paths = append(w.paths, path)
		w.lns = append(w.lns, ln)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				accepted <- nil
				w.served <- err
				return
			}
			sc := &serviceConn{Conn: conn}
			accepted <- sc
			err = wire.Serve(sc, wire.ServeOptions{Timeout: wireTimeout})
			conn.Close()
			w.served <- err
		}()
	}
	recipe := spec.Marshal()
	for i, path := range w.paths {
		cl, err := wire.Dial("unix", path, wireTimeout)
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, cl)
		sc := <-accepted
		if sc == nil {
			w.close()
			return nil, fmt.Errorf("wire accept on %s failed", path)
		}
		w.conns = append(w.conns, sc)
		ready, err := cl.Assign(wire.Assign{Recipe: recipe, Shards: 1, Owned: owned[i]})
		if err != nil {
			w.close()
			return nil, err
		}
		if i > 0 && ready.Lookahead != w.lookahead {
			w.close()
			return nil, fmt.Errorf("partition %d lookahead %v, partition 0 %v", i, ready.Lookahead, w.lookahead)
		}
		w.lookahead = ready.Lookahead
	}
	return w, nil
}

// states gathers every partition's city records back into city order.
func (w *wireRig) states(cities int) ([]city.CityState, error) {
	out := make([]city.CityState, cities)
	seen := make([]bool, cities)
	for p, cl := range w.clients {
		got, err := cl.States()
		if err != nil {
			return nil, err
		}
		for _, cs := range got {
			if cs.City < 0 || cs.City >= cities || seen[cs.City] {
				return nil, fmt.Errorf("partition %d reported city %d twice or out of range", p, cs.City)
			}
			out[cs.City], seen[cs.City] = cs, true
		}
	}
	for ci, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("no partition reported city %d", ci)
		}
	}
	return out, nil
}

// counters sums the worker ends' service time and bytes so far.
func (w *wireRig) counters() (service time.Duration, bytes int64) {
	for _, c := range w.conns {
		service += time.Duration(c.service.Load())
		bytes += c.bytes.Load()
	}
	return service, bytes
}

// bye ends every session cleanly and waits for the workers.
func (w *wireRig) bye() error {
	var first error
	for _, cl := range w.clients {
		if err := cl.Bye(); err != nil && first == nil {
			first = err
		}
	}
	w.clients = nil
	if err := w.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// close tears down whatever is still open and waits for every serving
// goroutine to return, reporting the first worker error.
func (w *wireRig) close() error {
	for _, cl := range w.clients {
		cl.Close()
	}
	w.clients = nil
	for _, ln := range w.lns {
		ln.Close()
	}
	var first error
	for range w.lns {
		if err := <-w.served; err != nil && first == nil {
			first = err
		}
	}
	w.lns = nil
	for _, p := range w.paths {
		_ = os.Remove(p)
	}
	return first
}

// runFedWire measures the multi-node path: 2 contiguous partitions, each
// served over its own unix-socket connection, driven to the end by one
// shard.Sync.Run, as df3coord drives its workers. Its unit of service is
// one barrier round: propose, window and deliver on every partition.
func runFedWire(cfg config) (*report, error) {
	spec := fedSpec(cfg)
	r := newReport("cpu_us_per_event", false)
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	exact := newExactCounts()
	var want uint64
	var prof *cpuProfile
	if !cfg.trace {
		want = reference(cfg, spec)
	} else {
		// The workers' cities live inside wire.Serve; their retry and
		// loss counts are read from the serial twin of the same spec.
		ref := serialReference(spec)
		exact.addFabricCounts(ref)
		want = ref.Checksum() ^ cfg.refShift
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	assign := shard.PartitionContiguous(spec.Cities, 2, nil)
	owned := make([][]int, 2)
	for ci, p := range assign {
		owned[p] = append(owned[p], ci)
	}
	heap := startHeapSampler()
	var setups, rates, cpuPerEvent, p50s, p99s []float64
	for i := 0; i < cfg.size.setups; i++ {
		if i%setupsPerProbe == 0 {
			cal.probe()
		}
		t0 := wall.Now()
		rig, err := startWire(cfg.workdir, spec, owned)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0).Seconds())
		if err := rig.bye(); err != nil {
			return nil, err
		}
	}
	var propose, window, deliver, services, transports, wireBytes, windowUS []float64
	var rtRun runtimeCounters
	var events uint64
	var peaks []float64
	heap.lap() // the set-ups' peak is not a run's
	spans := 0
	start := wall.Now()
	for rep := int64(0); rep < int64(cfg.size.minReps) || since(start).Seconds() < cfg.seconds; rep++ {
		var tr *tracer
		if cfg.trace {
			tr = newTracer()
		}
		runtime.GC() // each repetition starts from a collected heap
		cal.probe()
		t0 := wall.Now()
		rig, err := startWire(cfg.workdir, spec, owned)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0).Seconds())
		tr.record("assign", rep, t0, wall.Now())

		parts := make([]shard.Part, len(rig.clients))
		timed := make([]*timedPart, len(rig.clients))
		for i, cl := range rig.clients {
			parts[i] = cl
			if cfg.trace {
				timed[i] = &timedPart{p: cl, tr: tr}
				parts[i] = timed[i]
			}
		}
		clock := &roundClock{Part: parts[0]}
		parts[0] = clock
		sy, err := shard.NewSync(rig.lookahead, parts)
		if err != nil {
			rig.close()
			return nil, err
		}
		svc0, bytes0 := rig.counters()
		rt0 := readRuntime()
		runStart, cpu0 := wall.Now(), cpuNow()
		span := tr.enter("run", rep)
		runErr := sy.Run(spec.Until())
		tr.exit(span)
		clock.mark()
		runWall, runCPU := since(runStart), cpuNow()-cpu0
		rt1 := readRuntime()
		peaks = append(peaks, heap.lap())
		svc1, bytes1 := rig.counters()
		var states []city.CityState
		if runErr == nil {
			states, runErr = rig.states(spec.Cities)
		}
		if runErr == nil {
			runErr = rig.bye()
		} else {
			rig.close()
		}
		if runErr != nil {
			r.gate(false, "repetition %d: %v", rep, runErr)
			r.op(true)
			continue
		}
		rtRun = addRuntime(rtRun, rt0, rt1)
		rounds := clock.roundsMs()
		p50s = append(p50s, quantile(rounds, 0.5))
		p99s = append(p99s, quantile(rounds, 0.99))
		got := city.ChecksumStates(states)
		r.gate(got == want, "repetition %d: checksum %#x, serial reference %#x", rep, got, want)
		r.op(got != want)
		sum := city.SummarizeStates(states)
		events += sum.EventsFired
		rates = append(rates, float64(sum.EventsFired)/runWall.Seconds())
		cpuPerEvent = append(cpuPerEvent, usPerEvent(runCPU, sum.EventsFired))
		exact.addStateCounts(states)
		ss := sy.Stats()
		exact.add("shard.windows", float64(ss.Windows))
		exact.add("shard.critical_path_speedup", ss.Speedup())
		if !cfg.trace {
			continue
		}
		var calls int64
		var rtt time.Duration
		for _, t := range timed {
			calls += t.calls
		}
		for _, name := range []string{"propose", "window", "deliver"} {
			for _, s := range tr.byName(name) {
				rtt += s.end.Sub(s.start)
			}
		}
		exact.add("wire.round_trips", float64(calls))
		propose = append(propose, sumSeconds(phaseWalls(tr.byName("propose"))))
		ws := phaseWalls(tr.byName("window"))
		window = append(window, sumSeconds(ws))
		for _, d := range ws {
			windowUS = append(windowUS, d.Seconds()*1e6)
		}
		deliver = append(deliver, sumSeconds(phaseWalls(tr.byName("deliver"))))
		services = append(services, (svc1 - svc0).Seconds())
		transports = append(transports, (rtt - (svc1 - svc0)).Seconds())
		wireBytes = append(wireBytes, float64(bytes1-bytes0))
		spans += tr.count()
	}
	cal.probe()
	r.set("heap_peak_mb", median(peaks), heap.close())
	if len(rates) == 0 {
		return r, nil
	}
	setBatchMetrics(r, cal, setups, rates, cpuPerEvent, p50s, p99s)
	exact.report(r, cfg.trace)
	if cfg.trace {
		if err := prof.stop(r); err != nil {
			return nil, err
		}
		setRuntimeDelta(r, runtimeCounters{}, rtRun, events)
		r.set("shard.sync.propose_s", median(propose), len(propose))
		r.set("shard.sync.window_s", median(window), len(window))
		r.set("shard.sync.deliver_s", median(deliver), len(deliver))
		r.set("shard.sync.window_p50_us", quantile(windowUS, 0.5), len(windowUS))
		r.set("shard.sync.window_p99_us", quantile(windowUS, 0.99), len(windowUS))
		r.set("wire.service_s", median(services), len(services))
		r.set("wire.transport_s", median(transports), len(transports))
		r.set("wire.bytes", median(wireBytes), len(wireBytes))
		r.set("trace.spans", float64(spans), spans)
	}
	return r, nil
}

// setBatchMetrics records a batch workload's end-to-end metrics and its
// raw per-layer costs. Set-up time and CPU per event are medians over
// the run, at the reference host speed: the median over the run of the
// probe's slices tracks the host's speed better than the probes next to
// one repetition do, so the run's median repetition is normalised by it.
// The service quantiles are each repetition's p50 and p99, median over
// repetitions.
func setBatchMetrics(r *report, cal *calibrator, setups, rates, cpuPerEvent, p50s, p99s []float64) {
	r.set("setup_s", cal.norm(median(setups)), len(setups))
	r.set("cpu_us_per_event", cal.norm(median(cpuPerEvent)), len(cpuPerEvent))
	cal.record(r)
	r.set("service_p50_ms", median(p50s), len(p50s))
	r.set("service_p99_ms", median(p99s), len(p99s))
	r.set("sim_events_per_s", median(rates), len(rates))
}

// setupsPerProbe is how many set-ups a run times between two probes of
// the host's speed.
const setupsPerProbe = 10

func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// roundClock wraps one partition and reads the process's CPU time each
// time the barrier asks that partition for its next event, which starts
// a round; the differences are the rounds' host CPU times, whichever
// goroutine spent them.
type roundClock struct {
	shard.Part
	marks []time.Duration
}

func (c *roundClock) NextEvent() (sim.Time, bool, error) {
	c.mark()
	return c.Part.NextEvent()
}

// mark reads the clock; a mark after the run closes the last round.
func (c *roundClock) mark() { c.marks = append(c.marks, cpuNow()) }

// roundsMs returns each round's CPU time, in ms.
func (c *roundClock) roundsMs() []float64 {
	out := make([]float64, 0, len(c.marks))
	for i := 1; i < len(c.marks); i++ {
		out = append(out, ms(c.marks[i]-c.marks[i-1]))
	}
	return out
}
