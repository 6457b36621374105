package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"df3/internal/api"
	"df3/internal/checkpoint"
	"df3/internal/city"
	"df3/internal/metrics"
	"df3/internal/rng"
	"df3/internal/sim"
)

const (
	// liveSpeed is simulated seconds per wall second, as df3d -live runs.
	liveSpeed = 60
	// latencyLimitMs is the edge deadline scaled to wall time (1 s of
	// simulated time at speed 60 ≈ 16.7 ms) plus slack for the paced
	// driver's 2 ms tick and the host.
	latencyLimitMs = 25
	// ingestTimeout bounds each handler's wait; a request that reaches it
	// failed, and counts at this latency.
	ingestTimeout = 10 * time.Second
	// dccFrac is the share of arrivals that are small DCC jobs.
	dccFrac = 0.01
	// tenants and zipfS shape the tenant mix like df3load's defaults.
	tenants = 1000
	zipfS   = 1.2
	// maxLagS is the paced lag, in simulated seconds, past which a ramp
	// step counts as falling behind: one MaxSlice.
	maxLagS = 1
	// maxOutstanding caps the generator's requests in flight; past it the
	// generator waits, and its lateness shows in every later request.
	maxOutstanding = 16384
)

// liveSpec is the live session's federation: 2 cities of 4 buildings × 6
// rooms on 1 shard, with no generated traffic — every request arrives
// through ingest. Days only satisfies Validate; the paced horizon is
// LiveConfig's default year.
func liveSpec(cfg config) city.Spec {
	return city.Spec{Seed: cfg.stream("spec").Uint64(), Cities: 2, Buildings: 4, Rooms: 6, Days: 365}
}

// session is one live serving session with its WAL and checkpoints.
type session struct {
	live    *api.Live
	srv     *api.LiveServer
	wal     *os.File
	walPath string
	ckDir   string
	// setup is the wall time from the build until the session served.
	setup time.Duration
}

// startSession builds the federation, wires it behind the ingest plane
// with a WAL and periodic checkpoints, and returns once it serves. Its
// set-up time starts at the build: making the scratch directory and WAL
// file is the harness's doing, and on a shared disk those calls took
// 0.2–0.3 ms of a 0.9 ms set-up, varying from one run to the next.
func startSession(dir string, spec city.Spec, every sim.Time, adm api.AdmissionConfig) (*session, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &session{walPath: filepath.Join(dir, "wal.ndjson"), ckDir: filepath.Join(dir, "ck")}
	if err := os.MkdirAll(s.ckDir, 0o755); err != nil {
		return nil, err
	}
	wal, err := os.Create(s.walPath)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	t0 := wall.Now()
	s.live = api.NewLive(spec.Build(1), api.LiveConfig{
		Speed:           liveSpeed,
		IngestTimeout:   ingestTimeout,
		ArrivalLog:      wal,
		BuildConfig:     spec.Marshal(),
		CheckpointEvery: every,
		CheckpointDir:   s.ckDir,
		Admission:       adm,
	})
	s.srv = api.NewLiveServer(s.live)
	s.live.Start()
	select {
	case <-s.live.Ready():
		s.setup = since(t0)
		return s, nil
	case <-s.live.Done():
		wal.Close()
		return nil, fmt.Errorf("live session stopped before serving: %v", s.live.RecoverErr())
	}
}

// stop halts the driver, flushes and closes the WAL, and returns the
// federation checksum at stop.
func (s *session) stop() (uint64, error) {
	// sim.Paced.Drive clears its stop flag when it begins, so a Stop that
	// lands between Ready and the drive loop's start is lost and Stop
	// waits for the one-year horizon. Wait for the first slice instead.
	if err := s.waitDriving(); err != nil {
		return 0, err
	}
	err := s.live.Stop()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return s.live.Federation().Checksum(), err
}

// waitDriving returns once the paced driver has run a slice.
func (s *session) waitDriving() error {
	id := metrics.ID("df3_paced_slices_total", nil)
	for start := wall.Now(); since(start) < ingestTimeout; wall.Sleep(time.Millisecond) {
		m, err := s.scrape()
		if err != nil {
			return err
		}
		if m[id] > 0 {
			return nil
		}
	}
	return fmt.Errorf("paced driver ran no slice within %v", ingestTimeout)
}

// scrape reads the session's registry at a slice boundary.
func (s *session) scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	var err error
	s.live.Sync(func() { err = s.live.Registry().WritePrometheus(&buf) })
	if err != nil {
		return nil, err
	}
	return metrics.ParsePrometheus(&buf)
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due    time.Duration // from the phase start
	tenant int
	workS  float64   // an edge request's work
	frames []float64 // a DCC job's frame work; nil for an edge request
}

// schedule draws a Poisson arrival stream at rate req/s for dur: Zipf
// tenants, about dccFrac small DCC jobs, the rest edge requests with a
// 1 s simulated deadline. Bodies are encoded when each request is sent,
// so the schedule stays small next to the heap it measures.
func schedule(s *rng.Stream, z *rng.Zipf, rate float64, dur time.Duration) []arrival {
	var out []arrival
	for t := s.Exp(rate); t < dur.Seconds(); t += s.Exp(rate) {
		a := arrival{due: time.Duration(t * float64(time.Second)), tenant: z.Draw()}
		if s.Bool(dccFrac) {
			a.frames = make([]float64, 1+s.Intn(2))
			for i := range a.frames {
				a.frames[i] = s.Exp(1 / 2.0)
			}
		} else {
			a.workS = s.Exp(1 / 0.05)
		}
		out = append(out, a)
	}
	return out
}

// request encodes the arrival as its ingest path and JSON body.
func (a arrival) request() (string, []byte) {
	path, body := "/v1/edge", any(map[string]any{"tenant": a.tenant, "work_s": a.workS, "deadline_s": 1})
	if a.frames != nil {
		path, body = "/v1/dcc", map[string]any{"tenant": a.tenant, "frame_work_s": a.frames}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // maps of finite numbers always marshal
	}
	return path, b
}

// outcome is one request's result as the generator saw it.
type outcome struct {
	dcc             bool
	due, sent, done time.Time
	status          int
	verdict         string
}

// terminal reports whether the request reached a simulated verdict.
func (o outcome) terminal() bool {
	if o.status != http.StatusOK {
		return false
	}
	if o.dcc {
		return o.verdict == "done" || o.verdict == "lost"
	}
	return o.verdict == "served" || o.verdict == "rejected"
}

// latencyMs is the request's wall latency from when it was due; a request
// without a verdict counts at the ingest timeout, past any limit.
func (o outcome) latencyMs() float64 {
	if !o.terminal() {
		return ms(ingestTimeout)
	}
	return ms(o.done.Sub(o.due))
}

// drive sends the arrivals open loop: each is dispatched on its own
// goroutine when due, whatever the earlier ones are doing, and timed from
// its due time. It returns once every request has its reply.
func drive(h http.Handler, arr []arrival, tr *tracer, idBase int64) []outcome {
	res := make([]outcome, len(arr))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := wall.Now()
	for i := range arr {
		due := start.Add(arr[i].due)
		if d := due.Sub(wall.Now()); d > 0 {
			wall.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = send(h, arr[i], due, tr, idBase+int64(i))
			<-sem
		}()
	}
	wg.Wait()
	return res
}

// send makes one request straight into the handler, with no socket.
func send(h http.Handler, a arrival, due time.Time, tr *tracer, id int64) outcome {
	o := outcome{dcc: a.frames != nil, due: due, sent: wall.Now()}
	path, body := a.request()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	o.done = wall.Now()
	tr.record("ServeHTTP", id, o.sent, o.done)
	o.status = rec.Code
	var reply struct {
		Outcome string `json:"outcome"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &reply) == nil {
		o.verdict = reply.Outcome
	}
	return o
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	edgeMs, dccMs, lateMs, handlerMs []float64
	// edgeByWindow holds the edge latencies of each p99Window of the
	// phase, by due time.
	edgeByWindow            [][]float64
	shed, failed, unsettled int
}

func summarise(res []outcome) phaseStats {
	var p phaseStats
	for _, o := range res {
		if o.dcc {
			p.dccMs = append(p.dccMs, o.latencyMs())
		} else {
			p.edgeMs = append(p.edgeMs, o.latencyMs())
			w := int(o.due.Sub(res[0].due) / p99Window)
			for len(p.edgeByWindow) <= w {
				p.edgeByWindow = append(p.edgeByWindow, nil)
			}
			p.edgeByWindow[w] = append(p.edgeByWindow[w], o.latencyMs())
		}
		p.lateMs = append(p.lateMs, ms(o.sent.Sub(o.due)))
		p.handlerMs = append(p.handlerMs, ms(o.done.Sub(o.sent)))
		switch {
		case o.terminal():
		case o.status == http.StatusTooManyRequests:
			p.shed++
			p.failed++
		default:
			p.failed++
			p.unsettled++
		}
	}
	return p
}

// p99Window is the span of due times whose edge latencies make one p99
// sample; at the nominal rate it holds about a thousand requests.
const p99Window = 250 * time.Millisecond

// windowP99 is the lower quartile over the phase's windows of each
// window's edge p99. Another tenant of the host that stalls the process
// for a few tens of milliseconds inflates the p99 of the windows it hits,
// and on a busy host that is most of them: the whole phase's p99 moved
// from 6 to 13 ms between runs of the same code. The quietest quarter of
// the windows gives the tail the serving path itself produces, and it
// still moves with anything that slows every request.
func (p phaseStats) windowP99() (float64, int) {
	var p99s []float64
	for _, w := range p.edgeByWindow {
		if len(w) > 0 {
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	return quantile(p99s, 0.25), len(p99s)
}

// account counts a phase's requests as operations.
func (p phaseStats) account(r *report, n int) {
	r.attempted += n
	r.failed += p.failed
}

// liveSampler scrapes a session's registry on its own goroutine during a
// traced phase: in-flight and queue peaks and the paced lag.
type liveSampler struct {
	stop            chan struct{}
	done            chan struct{}
	inflight, queue float64
	lag             []float64
	err             error
}

func startLiveSampler(s *session) *liveSampler {
	ls := &liveSampler{stop: make(chan struct{}), done: make(chan struct{})}
	inflightIDs := []string{
		metrics.ID("df3_ingest_inflight", metrics.Labels{"class": api.ClassEdge}),
		metrics.ID("df3_ingest_inflight", metrics.Labels{"class": api.ClassDCC}),
	}
	queueID := metrics.ID("df3_ingest_queue_depth", nil)
	lagID := metrics.ID("df3_paced_lag_seconds", nil)
	go func() {
		defer close(ls.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ls.stop:
				return
			case <-tick.C:
			}
			m, err := s.scrape()
			if err != nil {
				ls.err = err
				return
			}
			inflight := 0.0
			for _, id := range inflightIDs {
				inflight += m[id]
			}
			ls.inflight = max(ls.inflight, inflight)
			ls.queue = max(ls.queue, m[queueID])
			ls.lag = append(ls.lag, m[lagID])
		}
	}()
	return ls
}

func (ls *liveSampler) finish() error {
	close(ls.stop)
	<-ls.done
	return ls.err
}

// recovery is one timed recovery of a stopped session's WAL.
type recovery struct {
	parse, load, prefix, verify, suffix time.Duration
	capture, encode, read               time.Duration
	replayCPU                           time.Duration
	events                              uint64
	records, ckptBytes                  int
}

func (rc recovery) total() time.Duration {
	return rc.parse + rc.load + rc.prefix + rc.verify + rc.suffix
}

// recoverSession rebuilds the session's federation from its WAL and
// newest checkpoint, as df3d does after a crash: parse the WAL, load the
// checkpoint, replay the prefix it covers, Verify, replay the suffix. The
// recovered checksum must equal want. It then captures, encodes and reads
// back a checkpoint of the recovered federation.
func recoverSession(s *session, spec city.Spec, want uint64, tr *tracer, id int64) (recovery, error) {
	var rc recovery
	recipe := spec.Marshal()
	// Start from a collected heap, as a recovering process does: left to
	// the previous phase's garbage, the number of GC cycles inside a
	// replay varied between recoveries and moved the replay's CPU cost
	// by a fifth.
	runtime.GC()
	f := spec.Build(1)
	t := wall.Now()
	lap := func(name string) time.Duration {
		now := wall.Now()
		tr.record(name, id, t, now)
		d := now.Sub(t)
		t = now
		return d
	}
	raw, err := os.ReadFile(s.walPath)
	if err != nil {
		return rc, err
	}
	lg := api.ParseArrivalLog(raw)
	rc.parse = lap("recovery.parse")
	snap, _, _, err := checkpoint.Latest(s.ckDir)
	if err != nil {
		return rc, fmt.Errorf("no usable checkpoint: %w", err)
	}
	rc.load = lap("recovery.load")
	n := lg.Covered(snap.Meta.WALOffset)
	cpu0 := cpuNow()
	api.ReplayRecords(f, lg.Records[:n])
	rc.replayCPU = cpuNow() - cpu0
	rc.prefix = lap("recovery.replay_prefix")
	if err := checkpoint.Verify(f, snap, recipe); err != nil {
		return rc, err
	}
	rc.verify = lap("recovery.verify")
	cpu0 = cpuNow()
	api.ReplayRecords(f, lg.Records[n:])
	rc.replayCPU += cpuNow() - cpu0
	rc.suffix = lap("recovery.replay_suffix")
	rc.events = f.Summarize().EventsFired
	rc.records = len(lg.Records)
	if got := f.Checksum(); got != want {
		return rc, fmt.Errorf("recovered checksum %#x, live session stopped at %#x", got, want)
	}

	snap = checkpoint.Capture(f, checkpoint.Meta{}, recipe)
	rc.capture = lap("checkpoint.capture")
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return rc, err
	}
	rc.ckptBytes = buf.Len()
	rc.encode = lap("checkpoint.encode")
	back, err := checkpoint.Read(&buf)
	if err != nil {
		return rc, err
	}
	rc.read = lap("checkpoint.read")
	if back.Meta.Checksum != snap.Meta.Checksum {
		return rc, fmt.Errorf("checkpoint read back checksum %#x, encoded %#x", back.Meta.Checksum, snap.Meta.Checksum)
	}
	return rc, nil
}

// runLiveIngest measures the serving plane: a nominal open-loop phase,
// a stop and WAL recovery of it, then a stepped ramp for the highest rate
// that meets the latency limit.
func runLiveIngest(cfg config) (*report, error) {
	spec := liveSpec(cfg)
	r := newReport("service_p50_ms", false)
	dir := filepath.Join(cfg.workdir, "live")
	defer os.RemoveAll(dir)
	gen := cfg.stream("arrivals")
	zipf := rng.NewZipf(cfg.stream("tenants"), tenants, zipfS)
	nominalDur := time.Duration(0.4 * cfg.seconds * float64(time.Second))
	rampStep := time.Duration(0.04 * cfg.seconds * float64(time.Second))
	nominal := schedule(gen, zipf, cfg.size.liveRate, nominalDur)

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
	var setups []float64
	timedStart := func(name string, adm api.AdmissionConfig) (*session, error) {
		s, err := startSession(filepath.Join(dir, name), spec, cfg.size.checkpointEvery, adm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		end := wall.Now()
		tr.record("setup", int64(len(setups)), end.Add(-s.setup), end)
		return s, nil
	}
	for i := 0; i < cfg.size.setups; i++ {
		if i%setupsPerProbe == 0 {
			cal.probe()
		}
		s, err := timedStart(fmt.Sprintf("setup-%d", i), api.AdmissionConfig{})
		if err != nil {
			return nil, err
		}
		if _, err := s.stop(); err != nil {
			return nil, err
		}
	}

	// Phase 1: the nominal rate, under df3d's default admission limits.
	cal.probe()
	s, err := timedStart("nominal", api.AdmissionConfig{})
	if err != nil {
		return nil, err
	}
	var sampler *liveSampler
	if cfg.trace {
		sampler = startLiveSampler(s)
	}
	rt0 := readRuntime()
	phase := tr.enter("nominal", 0)
	res := drive(s.srv, nominal, tr, 0)
	tr.exit(phase)
	rt1 := readRuntime()
	if sampler != nil {
		if err := sampler.finish(); err != nil {
			return nil, err
		}
	}
	reg, err := s.scrape()
	if err != nil {
		return nil, err
	}
	want, err := s.stop()
	if err != nil {
		return nil, err
	}
	states := s.live.Federation().CityStates()
	nom := summarise(res)
	nom.account(r, len(res))
	r.gate(nom.unsettled == 0, "%d admitted requests got no terminal verdict", nom.unsettled)
	r.set("service_p50_ms", quantile(nom.edgeMs, 0.5), len(nom.edgeMs))
	p99, windows := nom.windowP99()
	r.set("service_p99_ms", p99, windows)

	// Phase 2: recover the nominal phase's WAL, several times.
	var recs []recovery
	var replayCPU []float64
	recStart := wall.Now()
	for i := 0; i < cfg.size.recoveries || since(recStart).Seconds() < 0.2*cfg.seconds; i++ {
		cal.probe()
		phase := tr.enter("recovery", int64(i))
		rc, err := recoverSession(s, spec, want^cfg.refShift, tr, int64(i))
		tr.exit(phase)
		r.gate(err == nil, "recovery %d: %v", i, err)
		r.op(err != nil)
		if rc.events > 0 { // the replay ran, so its cost was measured
			recs = append(recs, rc)
		}
	}
	if len(recs) > 0 {
		rates := make([]float64, len(recs))
		for i, rc := range recs {
			rates[i] = float64(rc.events) / (rc.prefix + rc.suffix).Seconds()
			replayCPU = append(replayCPU, usPerEvent(rc.replayCPU, rc.events))
		}
		r.set("sim_events_per_s", median(rates), len(rates))
	}

	// The ramp's overload probes the knee; it is not the serving load the
	// heap peak describes.
	r.set("heap_peak_mb", heap.lap(), heap.close())

	// Phase 3: the stepped ramp, stopped at the first step that misses the
	// limit, fails or falls behind the wall clock. Admission limits are
	// lifted so the step past the knee queues instead of shedding: a
	// backlog that would reach df3d's default in-flight cap has missed the
	// limit long before, so the knee is the same, and the probe's last
	// step fails no request.
	maxRPS := 0.0
	if quantile(nom.edgeMs, 0.99) <= latencyLimitMs && nom.failed == 0 {
		maxRPS = cfg.size.liveRate
	}
	rs, err := timedStart("ramp", api.AdmissionConfig{
		MaxInFlightEdge: maxOutstanding, MaxInFlightDCC: maxOutstanding, MaxQueue: maxOutstanding,
	})
	if err != nil {
		return nil, err
	}
	lagID := metrics.ID("df3_paced_lag_seconds", nil)
	for _, rate := range cfg.size.rampRates {
		if maxRPS == 0 {
			break
		}
		out := drive(rs.srv, schedule(gen, zipf, rate, rampStep), nil, 0)
		st := summarise(out)
		st.account(r, len(out))
		r.gate(st.unsettled == 0, "ramp at %v req/s: %d admitted requests got no terminal verdict", rate, st.unsettled)
		m, err := rs.scrape()
		if err != nil {
			return nil, err
		}
		if quantile(st.edgeMs, 0.99) > latencyLimitMs || st.failed > 0 || m[lagID] > maxLagS {
			break
		}
		maxRPS = rate
	}
	if _, err := rs.stop(); err != nil {
		return nil, err
	}

	cal.probe()
	r.set("setup_s", cal.norm(median(setups)), len(setups))
	if len(replayCPU) > 0 {
		r.set("cpu_us_per_event", cal.norm(median(replayCPU)), len(replayCPU))
	}
	cal.record(r)
	if !cfg.trace {
		return r, nil
	}

	if err := prof.stop(r); err != nil {
		return nil, err
	}
	sum := city.SummarizeStates(states)
	var retries, lost int64
	for _, c := range s.live.Federation().Cities {
		retries += c.MW.Edge.Retries.Value()
		lost += c.Net.LostMessages()
	}
	r.set("sim.events", float64(sum.EventsFired), 1)
	r.set("core.edge_submitted", float64(sum.EdgeSubmitted), 1)
	if sum.EdgeSubmitted > 0 {
		r.set("core.edge_served_frac", float64(sum.EdgeServed)/float64(sum.EdgeSubmitted), int(sum.EdgeSubmitted))
	}
	r.set("core.edge_retries", float64(retries), 1)
	r.set("core.dcc_jobs_done", float64(sum.JobsDone), 1)
	r.set("core.dcc_jobs_lost", float64(sum.JobsLost), 1)
	r.set("network.lost_messages", float64(lost), 1)
	setRuntimeDelta(r, rt0, rt1, sum.EventsFired)

	count := func(class, outcome string) float64 {
		return reg[metrics.ID("df3_ingest_requests_total", metrics.Labels{"class": class, "outcome": outcome})]
	}
	r.set("api.served", count(api.ClassEdge, "served"), len(res))
	r.set("api.shed", count(api.ClassEdge, "shed")+count(api.ClassDCC, "shed"), len(res))
	r.set("api.timeouts", count(api.ClassEdge, "timeout")+count(api.ClassDCC, "timeout"), len(res))
	r.set("api.handler_p99_ms", quantile(nom.handlerMs, 0.99), len(nom.handlerMs))
	r.set("api.inflight_peak", sampler.inflight, len(sampler.lag))
	r.set("api.queue_depth_peak", sampler.queue, len(sampler.lag))
	r.set("sim.paced.lag_p99_s", quantile(sampler.lag, 0.99), len(sampler.lag))
	r.set("sim.paced.slices", reg[metrics.ID("df3_paced_slices_total", nil)], 1)
	r.set("generator.late_p99_ms", quantile(nom.lateMs, 0.99), len(nom.lateMs))
	r.set("ingest_dcc_p50_ms", quantile(nom.dccMs, 0.5), len(nom.dccMs))
	r.set("ingest_max_rps", maxRPS, len(cfg.size.rampRates))
	r.set("checkpoint.writes", reg[metrics.ID("df3_checkpoint_writes_total", nil)], 1)
	arrivals := len(res) - nom.shed
	r.set("api.wal_bytes_per_arrival", reg[metrics.ID("df3_wal_written_bytes", nil)]/float64(max(arrivals, 1)), arrivals)
	if len(recs) > 0 {
		pick := func(f func(recovery) time.Duration) []float64 {
			out := make([]float64, len(recs))
			for i, rc := range recs {
				out[i] = f(rc).Seconds()
			}
			return out
		}
		n := len(recs)
		r.set("recovery_s", median(pick(recovery.total)), n)
		r.set("recovery.parse_ms", 1e3*median(pick(func(rc recovery) time.Duration { return rc.parse })), n)
		r.set("recovery.load_ms", 1e3*median(pick(func(rc recovery) time.Duration { return rc.load })), n)
		r.set("recovery.replay_s", median(pick(func(rc recovery) time.Duration { return rc.prefix + rc.suffix })), n)
		r.set("checkpoint.verify_ms", 1e3*median(pick(func(rc recovery) time.Duration { return rc.verify })), n)
		r.set("checkpoint.capture_ms", 1e3*median(pick(func(rc recovery) time.Duration { return rc.capture })), n)
		r.set("checkpoint.encode_ms", 1e3*median(pick(func(rc recovery) time.Duration { return rc.encode })), n)
		r.set("checkpoint.read_ms", 1e3*median(pick(func(rc recovery) time.Duration { return rc.read })), n)
		r.set("checkpoint.bytes", float64(recs[0].ckptBytes), n)
		r.set("recovery.wal_records", float64(recs[0].records), n)
	}
	r.set("trace.spans", float64(tr.count()), tr.count())
	return r, nil
}
