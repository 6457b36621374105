// Command df3perf is df3's benchmark harness. It drives the system from
// outside, through the public functions of each layer, on three seeded
// workloads:
//
//   - fed_edge: a 4-city federation at full edge rate, batch-run in process
//     on 2 shards through city.Federation.Run;
//   - fed_wire: the same city shape at 0.2× edge rate, split over 2 wire
//     partitions served on the harness's own unix sockets and driven by
//     shard.Sync, as df3coord drives df3node workers;
//   - live_ingest: a paced api.Live session over 2 cities at speed 60,
//     fed an open loop of Poisson arrivals through LiveServer.ServeHTTP,
//     then stopped and recovered from its WAL and newest checkpoint, then
//     ramped to find the highest rate that meets the latency limit.
//
// Every run checks its outputs (federation checksums against a serial
// reference, recovered checksums against the live session's, every
// admitted request settled) and prints a metric table followed by one
// JSON line: the end-to-end metrics when untraced, the per-layer metrics
// when traced.
//
//	bash df3perf/run.sh --workload fed_edge --seed 1 --seconds 25 --trace 0
//
// Wall time is read only through sim.WallClock and randomness comes only
// from internal/rng streams forked from --seed, so the harness keeps the
// repository's determinism contracts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"df3/internal/rng"
	"df3/internal/sim"
)

// watchdog bounds one invocation's wall time.
const watchdog = 170 * time.Second

// wall is the harness's only clock: the repository's sanctioned
// wall-clock boundary.
var wall sim.WallClock

// since returns the wall time elapsed from t.
func since(t time.Time) time.Duration { return wall.Now().Sub(t) }

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workdir holds run scratch: unix sockets, WALs and checkpoints. A
	// relative path keeps socket names short.
	workdir string
	// size scales every workload; full for the benchmark, tiny for the
	// self-test.
	size size
	// refShift, when non-zero, is XORed into every reference checksum —
	// the self-test's deliberately wrong reference.
	refShift uint64
}

// stream returns the seed's substream for one named purpose.
func (c config) stream(name string) *rng.Stream {
	return rng.New(c.seed).ForkNamed(c.workload + "/" + name)
}

// workloads lists each workload with its runner. A runner returns an
// error only when it could not measure at all; wrong outputs are recorded
// in the report and fail the run through it.
var workloads = []struct {
	name string
	run  func(config) (*report, error)
}{
	{"fed_edge", runFedEdge},
	{"fed_wire", runFedWire},
	{"live_ingest", runLiveIngest},
}

// runnerFor returns the named workload's runner, or nil.
func runnerFor(name string) func(config) (*report, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured wall seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for sockets, WALs and checkpoints")
	flag.Parse()
	if runnerFor(cfg.workload) == nil {
		usage("--workload %q: want one of %s", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		usage("--seconds %v: want a positive duration", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		usage("--trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	cfg.size = full

	// A run that wedges must still end within the contract's 180 s, and
	// without a result line.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "df3perf: run exceeded %v\n", watchdog)
		os.Exit(1)
	})

	code, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "df3perf:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "df3perf: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one invocation and writes its table and result line. It
// returns the exit code: 0 for a correct run, 1 when a gate failed.
func run(w io.Writer, cfg config) (int, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return 0, fmt.Errorf("workdir: %w", err)
	}
	printEnv(w, cfg)
	rep, err := runMode(cfg)
	if err != nil {
		return 0, err
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		return 0, err
	}
	rep.writeTable(w, cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// runMode runs the untraced pass alone, or, for a traced invocation, an
// untraced and a traced pass of half the seconds each: per-layer numbers
// come from the traced pass, and the two passes' headline metrics give
// the tracing overhead.
func runMode(cfg config) (*report, error) {
	runner := runnerFor(cfg.workload)
	if !cfg.trace {
		return runner(cfg)
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	half.trace = false
	plain, err := runner(half)
	if err != nil {
		return nil, err
	}
	half.trace = true
	traced, err := runner(half)
	if err != nil {
		return nil, err
	}
	traced.absorbGates(plain)
	traced.setOverhead(plain)
	return traced, nil
}

// printEnv records the run's environment as comment lines. The CPU model
// and the commit measured are kept in PROVENANCE.md: the harness reads
// nothing outside its checkout, which carries no git metadata.
func printEnv(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# df3perf workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# env GOMAXPROCS=%d NumCPU=%d go=%s os=%s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
