package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload, each measured on that workload's own
// unit of work (PROVENANCE.md has the table):
//
//   - setup_s: wall time from build (or listen, or session start) until
//     the system is ready, median of many set-ups;
//   - cpu_us_per_event: host CPU time per simulated event of batch
//     execution — the federation run, or the WAL replay of a recovery;
//   - heap_peak_mb: the peak Go heap over the run.
//
// Both times are reported at the reference host speed (calib.go). Batch
// costs are CPU time, not wall time, because on a shared host other
// tenants take cores away for seconds at a time, which moves wall time
// by tens of percent between runs. Wall throughput, the service times of
// one step, barrier round or edge request, and the live latencies are
// per-layer metrics: no statistic of them held still between runs of the
// same code on such a host.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_event", "us"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics, printed by every traced run of
// every workload; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// sim
	{"sim_events_per_s", "events/s"},
	{"sim.events", "count"},
	{"cpu.sim_s", "s"},
	// network
	{"cpu.network_s", "s"},
	{"network.lost_messages", "count"},
	// core
	{"cpu.core_s", "s"},
	{"cpu.sched_s", "s"},
	{"core.edge_submitted", "count"},
	{"core.edge_served_frac", "ratio"},
	{"core.edge_retries", "count"},
	{"core.dcc_jobs_done", "count"},
	{"core.dcc_jobs_lost", "count"},
	// building physics
	{"cpu.thermal_s", "s"},
	{"cpu.regulator_s", "s"},
	{"cpu.server_s", "s"},
	{"cpu.power_s", "s"},
	{"cpu.weather_s", "s"},
	// runtime
	{"runtime.alloc_bytes_per_event", "B/event"},
	{"runtime.allocs_per_event", "allocs/event"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"cpu.gc_s", "s"},
	{"cpu.runtime_s", "s"},
	// shard, in process
	{"cpu.shard_s", "s"},
	{"shard.windows", "count"},
	{"shard.critical_path_speedup", "ratio"},
	{"shard.busy_s", "s"},
	{"shard.idle_s", "s"},
	// shard, Sync barrier
	{"shard.sync.propose_s", "s"},
	{"shard.sync.window_s", "s"},
	{"shard.sync.deliver_s", "s"},
	{"shard.sync.window_p50_us", "us"},
	{"shard.sync.window_p99_us", "us"},
	// wire
	{"cpu.wire_s", "s"},
	{"wire.round_trips", "count"},
	{"wire.bytes", "B"},
	{"wire.service_s", "s"},
	{"wire.transport_s", "s"},
	// city
	{"cpu.city_s", "s"},
	// api
	{"cpu.api_s", "s"},
	{"api.served", "count"},
	{"api.shed", "count"},
	{"api.timeouts", "count"},
	{"api.handler_p99_ms", "ms"},
	{"api.inflight_peak", "count"},
	{"api.queue_depth_peak", "count"},
	{"api.wal_bytes_per_arrival", "B"},
	{"sim.paced.lag_p99_s", "s"},
	{"sim.paced.slices", "count"},
	{"generator.late_p99_ms", "ms"},
	{"ingest_dcc_p50_ms", "ms"},
	{"ingest_max_rps", "req/s"},
	// checkpoint and recovery
	{"cpu.checkpoint_s", "s"},
	{"recovery_s", "s"},
	{"checkpoint.writes", "count"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.capture_ms", "ms"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.read_ms", "ms"},
	{"checkpoint.verify_ms", "ms"},
	{"recovery.parse_ms", "ms"},
	{"recovery.load_ms", "ms"},
	{"recovery.replay_s", "s"},
	{"recovery.wal_records", "count"},
	// support modules and the benchmark itself
	{"cpu.metrics_s", "s"},
	{"cpu.rng_s", "s"},
	{"cpu.workload_s", "s"},
	{"cpu.harness_s", "s"},
	{"cpu.other_s", "s"},
	{"fail_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
	// the host's speed (calib.go) and the service times it does not
	// normalise
	{"host.calibration_ms", "ms"},
	{"service_p50_ms", "ms"},
	{"service_p99_ms", "ms"},
}

// unitOf returns the catalogued unit of a metric name.
func unitOf(name string) (string, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// value is one measured metric.
type value struct {
	v       float64
	samples int
}

// report collects one workload pass: operations attempted and failed,
// correctness gates, and measured metrics.
type report struct {
	attempted, failed int
	gates             []string
	vals              map[string]value
	// headline is the end-to-end metric the tracing overhead compares,
	// and whether higher is better for it.
	headline       string
	headlineHigher bool
}

func newReport(headline string, higher bool) *report {
	return &report{vals: map[string]value{}, headline: headline, headlineHigher: higher}
}

// set records a metric measured over n samples. Unknown names are a
// harness bug.
func (r *report) set(name string, v float64, n int) {
	if _, ok := unitOf(name); !ok {
		panic("df3perf: uncatalogued metric " + name)
	}
	r.vals[name] = value{v: v, samples: n}
}

// gate records a failed correctness check when ok is false.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, if it failed, one failure.
func (r *report) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// absorbGates folds another pass's operations and gate failures into r,
// so a traced invocation fails if either of its passes did.
func (r *report) absorbGates(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.gates = append(r.gates, o.gates...)
}

// setOverhead records how much slower the traced pass r ran than the
// untraced pass o on the headline metric, as a fraction.
func (r *report) setOverhead(o *report) {
	traced, plain := r.vals[r.headline].v, o.vals[r.headline].v
	frac := 0.0
	switch {
	case traced <= 0 || plain <= 0:
	case r.headlineHigher:
		frac = plain/traced - 1
	default:
		frac = traced/plain - 1
	}
	r.set("trace.overhead_frac", frac, 2)
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the result line: every end-to-end metric untraced,
// every per-layer metric traced.
func (r *report) result(traced bool) (result, error) {
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted), r.attempted)
	}
	res := result{
		Correct:   len(r.gates) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultValue{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	set := endToEnd
	if traced {
		set = perLayer
	}
	for _, d := range set {
		v, ok := r.vals[d.name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return res, fmt.Errorf("metric %s is not finite (%v)", d.name, v.v)
		}
		res.Metrics[d.name] = resultValue{Value: v.v, Unit: d.unit}
	}
	return res, nil
}

// writeTable prints every measured metric with its unit and sample count
// as comment lines, the emitted set first, then any gate failures.
func (r *report) writeTable(w io.Writer, traced bool) {
	first, second := endToEnd, perLayer
	if traced {
		first, second = perLayer, endToEnd
	}
	fmt.Fprintf(w, "# %-32s %16s  %-12s %s\n", "metric", "value", "unit", "samples")
	for _, set := range [][]metricDef{first, second} {
		for _, d := range set {
			v, ok := r.vals[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "# %-32s %16.6g  %-12s %d\n", d.name, v.v, d.unit, v.samples)
		}
	}
	fmt.Fprintf(w, "# attempted %d, failed %d\n", r.attempted, r.failed)
	for _, g := range r.gates {
		fmt.Fprintf(w, "# GATE FAILED: %s\n", g)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
