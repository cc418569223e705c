// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one workload per process and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 the run alternates untraced and traced units of work and
// reports the per-layer ones (perLayer), including the tracing overhead
// between the two kinds. Inputs are a pure function of
// --seed; the program under test receives only the generated inputs.
//
// Run it through run.sh, which builds this module from the checkout:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run prints, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"reports_per_s", "reports/s"},
	{"result_latency_ms_p50", "ms"},
	{"user_us_per_report", "us"},
	{"delivered_ratio", "fraction"},
	{"max_rss_mb", "MiB"},
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"driver", "service", "transport", "ahe", "cluster", "protocol"}

// perLayer lists the metrics a --trace 1 run prints. A workload that
// does not exercise a layer reports its metrics as 0; README.md maps
// every metric to its workload.
var perLayer = append([]metricDef{
	{"ldp.aggregate_ns_per_report", "ns"},
	{"service.codec_ns_per_report", "ns"},
	{"ecies.session_ns_per_report", "ns"},
	{"ecies.handshake_us", "us"},
	{"service.send_ns_per_report", "ns"},
	{"service.send_blocked_frac", "fraction"},
	{"transport.wire_bytes_per_report", "B"},
	{"service.snapshot_us_p50", "us"},
	{"service.window_us_p50", "us"},
	{"service.drain_ms", "ms"},
	{"service.dropped_reports", "count"},
	{"store.wal_bytes_per_report", "B"},
	{"store.checkpoint_bytes", "B"},
	{"store.append_ns_per_report", "ns"},
	{"store.commit_us_p50", "us"},
	{"ahe.encrypt_us_p50", "us"},
	{"ahe.add_plain_us_p50", "us"},
	{"ahe.rerandomize_us_p50", "us"},
	{"ahe.decrypt_us_p50", "us"},
	{"ahe.ops_per_word.encrypt", "count"},
	{"ahe.ops_per_word.add_plain", "count"},
	{"ahe.ops_per_word.rerandomize", "count"},
	{"ahe.ops_per_word.decrypt", "count"},
	{"ahe.shuffler_busy_frac", "fraction"},
	{"ahe.pool_miss_ratio", "fraction"},
	{"cluster.client_bytes_per_report", "B"},
	{"cluster.mesh_bytes_per_report", "B"},
	{"cluster.analyzer_bytes_per_report", "B"},
	{"cluster.write_blocked_ms", "ms"},
	{"cluster.attempts_per_collection", "count"},
	{"protocol.users_cpu_s", "s"},
	{"oblivious.shuffler_cpu_s", "s"},
	{"protocol.server_cpu_s", "s"},
	{"protocol.shuffler_bytes_per_report", "B"},
	{"protocol.server_bytes_per_report", "B"},
	{"trace.reports_per_s", "reports/s"},
	{"trace.untraced_reports_per_s", "reports/s"},
	{"trace.overhead_frac", "fraction"},
	{"trace.spans", "count"},
}, selfTimeDefs()...)

func selfTimeDefs() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_ns_per_report." + l, "ns"})
	}
	return defs
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// work is the scratch directory (data directories, trace files);
	// it lies inside the checkout.
	work string
	// toy shrinks every input so the benchmark's own test can run each
	// workload in well under a second of measured time.
	toy bool
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness checks; empty means correct.
	problems []string
	metrics  map[string]float64
	// constants records the workload's fixed parameters for the host
	// record.
	constants map[string]any
	tr        *tracer
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"ingest":         runIngest,
	"peos_cluster":   runCluster,
	"peos_inprocess": runInprocess,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: ingest, peos_cluster, or peos_inprocess")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory inside the checkout")
	flag.Parse()
	if err := run(*workload, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, cfg runConfig) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := pinProcs(); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	host := hostRecord(workload, cfg, out.constants)
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("{\"host\": %s}\n", hostJSON)
	if out.tr != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.seed))
		if err := out.tr.writeFile(path, host); err != nil {
			return err
		}
		fmt.Printf("{\"trace_file\": %q}\n", path)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultOut{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: out.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d correctness check(s) failed", workload, len(out.problems))
	}
	return nil
}

// pinProcs pins GOMAXPROCS to the number of CPUs this process may run
// on, refusing an environment that asks for more: a run above the
// core count measures oversubscription, not the program.
func pinProcs() error {
	nproc := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		want, err := strconv.Atoi(env)
		if err != nil || want < 1 {
			return fmt.Errorf("GOMAXPROCS=%q is not a positive integer", env)
		}
		if want > nproc {
			return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to run oversubscribed", want, nproc)
		}
	}
	runtime.GOMAXPROCS(nproc)
	return nil
}

// nprocs is the number of CPUs this process may run on.
func nprocs() int { return runtime.NumCPU() }

// deadline returns when a measured phase of the given length ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
