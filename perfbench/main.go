// Command perfbench is the repository benchmark. It runs one workload
// against the library and the in-process HTTP server, checks every
// sampled answer against a brute-force reference, and prints its
// metrics as JSON; the last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// workload runs twice, untraced then traced, and the metrics are the
// per-layer ones read from the program's spans plus the tracing
// overhead. Every input is generated from -seed. The process exits 1
// on any wrong answer or broken counter law, 2 on a usage or set-up
// error.
//
// Run it through run.py, which builds it first:
//
//	python3 perfbench/run.py --workload serve_movielens --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the gated end-to-end metrics: what an operator pays
// for the system. Every workload reports each of them (see README.md for
// what each means on each workload). They are all set-up, memory or CPU
// time, because on a shared 2-vCPU host the CPU the hypervisor steals
// moves wall-clock throughput and latency between runs by more than the
// largest bound allows.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"mutate_cpu_ms", "ms"},
}

// printedMetrics are end-to-end figures every workload measures and
// prints on its pass lines, with their sample counts, but that are not
// gated: search latency and throughput as a user sees them.
var printedMetrics = []metricDef{
	{"search_p50_ms", "ms"},
	{"search_qps", "1/s"},
}

// layerMetrics attribute the end-to-end numbers to layers; a traced
// run reports each of them. A layer a workload does not pass through
// reads 0 (for example the server layers on offline_yahoo).
var layerMetrics = []metricDef{
	{"svd.decompose_s", "s"},
	{"core.build_s", "s"},
	{"core.transform_us", "us"},
	{"core.scan_us", "us"},
	{"core.scan_ns_per_scanned", "ns"},
	{"core.scan_frac", "ratio"},
	{"core.pruned_int_head_frac", "ratio"},
	{"core.pruned_int_full_frac", "ratio"},
	{"core.pruned_incremental_frac", "ratio"},
	{"core.pruned_monotone_frac", "ratio"},
	{"core.full_product_frac", "ratio"},
	{"core.add_us", "us"},
	{"core.delete_us", "us"},
	{"core.rebuilds", "count"},
	{"snap.wal_append_us", "us"},
	{"snap.checkpoint_ms", "ms"},
	{"engine.transform_us", "us"},
	{"engine.scan_us", "us"},
	{"engine.merge_us", "us"},
	{"server.transport_us", "us"},
	{"server.codec_us", "us"},
	{"server.lock_wait_us", "us"},
	{"server.guard_sheds", "count"},
	{"server.guard_timeouts", "count"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.late_arrivals", "count"},
	{"bench.cpu_cores", "cores"},
}

// tracePrefix names the tracing-overhead metrics of a traced run:
// trace.<metric> is the traced value minus the untraced one.
const tracePrefix = "trace."

// overheadMetrics are the end-to-end figures whose tracing overhead a
// traced run reports.
func overheadMetrics() []metricDef {
	return append(append([]metricDef(nil), e2eMetrics...), printedMetrics...)
}

// allLayerMetrics is layerMetrics followed by one overhead metric per
// end-to-end figure.
func allLayerMetrics() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, m := range overheadMetrics() {
		out = append(out, metricDef{tracePrefix + m.name, m.unit})
	}
	return out
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
	procs    int
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced pass")
	flag.StringVar(&cfg.scratch, "scratch", os.TempDir(), "directory for write-ahead logs and snapshots")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.procs = runtime.GOMAXPROCS(0)
	w, ok := workloadByName(cfg.workload)
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := run(cfg, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes the workload (twice when tracing) and assembles the
// result line, printing the self-describing detail lines before it.
func run(cfg config, w *workload) (*resultJSON, error) {
	describe(cfg, w)
	base, err := w.run(cfg, false)
	if err != nil {
		return nil, err
	}
	report("untraced", base)
	res := &resultJSON{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metricJSON{}}
	violations := base.violations
	if !cfg.trace {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricJSON{Value: base.e2e[m.name], Unit: m.unit}
		}
	} else {
		traced, err := w.run(cfg, true)
		if err != nil {
			return nil, err
		}
		report("traced", traced)
		for _, m := range overheadMetrics() {
			traced.layer[tracePrefix+m.name] = traced.e2e[m.name] - base.e2e[m.name]
		}
		for _, m := range allLayerMetrics() {
			res.Metrics[m.name] = metricJSON{Value: traced.layer[m.name], Unit: m.unit}
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		violations = append(violations, traced.violations...)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			violations = append(violations, fmt.Sprintf("metric %s is not a finite number", name))
			res.Metrics[name] = metricJSON{Value: 0, Unit: m.Unit}
		}
	}
	for i, v := range violations {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more violations\n", len(violations)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: VIOLATION: %s\n", v)
	}
	res.Correct = len(violations) == 0
	return res, nil
}

// describe prints the workload's parameters as one JSON line, so a
// saved output says what was measured.
func describe(cfg config, w *workload) {
	printJSON(map[string]any{
		"describe":     w.name,
		"why":          w.why,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"procs":        cfg.procs,
		"profile":      w.profile,
		"n":            w.n,
		"d":            dim,
		"k":            topK,
		"queries":      w.queries,
		"repeat_share": w.repeatShare,
		"mutate_share": w.mutateShare,
		"traffic":      w.traffic,
	})
}

// report prints one pass's metrics with the evidence behind them:
// sample counts of every percentile and the workload's own details.
func report(pass string, o *outcome) {
	keys := make([]string, 0, len(o.pcts))
	for k := range o.pcts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pcts := make(map[string]pct, len(keys))
	for _, k := range keys {
		pcts[k] = o.pcts[k]
		if !o.pcts[k].supported() {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s rests on %d samples beyond it (want %d)\n", pass, k, o.pcts[k].Beyond, minBeyond)
		}
	}
	printJSON(map[string]any{
		"pass":        pass,
		"e2e":         o.e2e,
		"layer":       o.layer,
		"percentiles": pcts,
		"info":        o.info,
		"attempted":   o.attempted,
		"failed":      o.failed,
		"violations":  len(o.violations),
	})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding detail: %v\n", err)
		return
	}
	fmt.Println(string(b))
}
