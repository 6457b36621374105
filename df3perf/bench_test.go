package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// runTiny runs one workload at the self-test size and decodes its result
// line.
func runTiny(t *testing.T, workload string, traced bool, refShift uint64) (int, result, string) {
	t.Helper()
	seconds := 0.2
	if workload == "live_ingest" {
		seconds = 1.2 // long enough for a checkpoint in every pass
	}
	cfg := config{
		workload: workload, seed: defaultSeed, seconds: seconds, trace: traced,
		workdir: t.TempDir(), size: tiny, refShift: refShift,
	}
	var out bytes.Buffer
	code, err := run(&out, cfg)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return code, res, out.String()
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks that each prints exactly its catalogued metrics, with their
// units, in a correct run.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			code, res, out := runTiny(t, w, traced, 0)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: code %d, result %+v\n%s", w, traced, code, res, out)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, d.name, got, d.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, got.Value)
				}
			}
		}
	}
}

// TestWrongReferenceFails checks that a wrong reference checksum fails
// the run: the gate reports it and the run is not correct.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloadNames() {
		code, res, out := runTiny(t, w, false, 1)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong reference: code %d, result %+v\n%s", w, code, res, out)
		}
		if !strings.Contains(out, "GATE FAILED") {
			t.Errorf("%s with a wrong reference: no gate failure reported\n%s", w, out)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the harness's
// metric and workload catalogues in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, w.Name, names[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestCommittedReferences recomputes the committed default-seed serial
// checksums the batch workloads gate on.
func TestCommittedReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both full-size serial references")
	}
	for _, w := range []string{"fed_edge", "fed_wire"} {
		cfg := config{workload: w, seed: defaultSeed, size: full}
		if got := serialReference(fedSpec(cfg)).Checksum(); got != references[w] {
			t.Errorf("%s: serial reference %#x, committed %#x", w, got, references[w])
		}
	}
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "df3/internal/sim.(*Engine).Schedule", "df3/internal/core.(*Middleware).SubmitEdge"}, "sim"},
		{[]string{"syscall.Syscall", "main.(*serviceConn).Read", "df3/internal/wire.ReadFrame"}, "wire"},
		{[]string{"encoding/json.Marshal", "main.schedule"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"df3/internal/units.Watt.String"}, "other"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime"},
	} {
		if got := moduleOf(tc.stack); got != tc.want {
			t.Errorf("moduleOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestExactCountsGateUntraced checks that a † count differing between
// repetitions fails the run even when the counts are not emitted.
func TestExactCountsGateUntraced(t *testing.T) {
	for _, emit := range []bool{false, true} {
		e := newExactCounts()
		e.add("shard.windows", 10)
		e.add("shard.windows", 11)
		r := newReport("cpu_us_per_event", false)
		e.report(r, emit)
		if len(r.gates) != 1 {
			t.Errorf("emit=%v: gates %q, want one failure", emit, r.gates)
		}
		if _, ok := r.vals["shard.windows"]; ok != emit {
			t.Errorf("emit=%v: shard.windows recorded = %v", emit, ok)
		}
	}
}

// TestCalibratorSlicesRepeat checks that every probe slice does the same
// work, which is what makes its time a measure of the host alone, and
// that each probe records calSlices timings.
func TestCalibratorSlicesRepeat(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	first := c.slice()
	if again := c.slice(); again != first {
		t.Errorf("slice result %v, then %v", first, again)
	}
	c.probe()
	c.probe()
	if len(c.slicesMs) != 2*calSlices {
		t.Fatalf("%d slice timings after two probes, want %d", len(c.slicesMs), 2*calSlices)
	}
	for i, v := range c.slicesMs {
		if v <= 0 {
			t.Errorf("slice %d took %v ms", i, v)
		}
	}
	if got, want := c.norm(c.sliceMs()), calRefMs; math.Abs(got-want) > 1e-9 {
		t.Errorf("norm of the median slice = %v, want calRefMs %v", got, want)
	}
}
