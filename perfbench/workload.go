package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"fexipro/internal/data"
	"fexipro/internal/vec"
)

const (
	dim  = 50 // latent dimensions of every workload
	topK = 10 // k of every search

	// setupReps is how many times each pass builds its system; setup_s
	// is the median.
	setupReps = 5
	// gateQueries is the size of the fixed query sample whose answers
	// are checked against the brute-force reference.
	gateQueries = 64
	// probeMutations is the length of the add/delete probe on the
	// workloads without mutation traffic: enough for ten samples beyond
	// the 99th percentile.
	probeMutations = 1000
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name, why   string
	profile     string
	n, queries  int
	fresh       int // extra profile items generated as add candidates
	repeatShare string
	mutateShare string
	traffic     string
	run         func(cfg config, traced bool) (*outcome, error)
}

// workloads lists the benchmark's workloads. The why lines are the
// ones BENCHMARK.json carries.
func workloads() []*workload {
	return []*workload{
		{
			name:        "offline_yahoo",
			why:         "kernel only (core/svd/vec, no HTTP, no lock) on a 100k x 50 catalog larger than cache: kernel changes show here, server changes must not",
			profile:     "yahoo",
			n:           100000,
			queries:     24000,
			fresh:       probeMutations / 2,
			repeatShare: "0: every query is a distinct profile user (the pass line reports the measured share)",
			mutateShare: "0 during searches; a separate probe of 1000 direct core.DynamicIndex adds and deletes",
			traffic:     "single-goroutine Search(q,10), then TopKAll with nproc workers, then the mutation probe",
			run:         runOffline,
		},
		{
			name:        "serve_movielens",
			why:         "read traffic through server, engine and core over loopback on a cache-sized catalog, where the server lock, JSON and net/http take about half of each request",
			profile:     "movielens",
			n:           33670,
			queries:     2000,
			fresh:       probeMutations / 2,
			repeatShare: "zipf s=1.2 over a pool of 2000 profile users (the pass line reports the measured share)",
			mutateShare: "0 during searches; a separate probe of 1000 sequential adds and deletes over HTTP",
			traffic:     fmt.Sprintf("closed loop with nproc connections, then open loop at %d/s, then the mutation probe", serveRate),
			run:         runServe,
		},
		{
			name:        "churn_movielens",
			why:         "durable writes (WAL fsync per mutation, checkpoint every 500) beside reads on the same lock: a read-path gain that costs writes shows here",
			profile:     "movielens",
			n:           33670,
			queries:     2000,
			fresh:       4000, // the first half for the open loop, the rest for the probe
			repeatShare: "zipf s=1.2 over a pool of 2000 profile users (the pass line reports the measured share)",
			mutateShare: "1 in 5 arrivals, alternating add of a fresh item and delete of an item the benchmark added; then a probe of 1000 sequential durable adds and deletes",
			traffic:     fmt.Sprintf("open loop at %d/s with mutations, then a closed loop of reads with nproc connections, then the mutation probe", churnRate),
			run:         runChurn,
		},
	}
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// outcome is what one pass of a workload measured.
type outcome struct {
	e2e        map[string]float64
	layer      map[string]float64
	pcts       map[string]pct
	info       map[string]any
	attempted  int64
	failed     int64
	violations []string
}

func newOutcome() *outcome {
	return &outcome{
		e2e:   map[string]float64{},
		layer: map[string]float64{},
		pcts:  map[string]pct{},
		info:  map[string]any{},
	}
}

// violate records a wrong answer or a broken invariant; it fails the
// run.
func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// setPct stores a percentile both as an end-to-end value and with its
// evidence.
func (o *outcome) setPct(name string, p pct) {
	o.e2e[name] = p.Value
	o.pcts[name] = p
}

// setMutations records the mutation percentiles under the prefix: the
// median add and the median delete (separately, since the two differ by
// an order of magnitude and a median over both would sit on the
// boundary between them) and the 99th percentile over all mutations.
func (o *outcome) setMutations(prefix string, adds, dels []float64) {
	o.pcts[prefix+"add_p50_ms"] = percentile(adds, 0.5)
	o.pcts[prefix+"delete_p50_ms"] = percentile(dels, 0.5)
	o.pcts[prefix+"mutate_p99_ms"] = percentile(append(append([]float64(nil), adds...), dels...), 0.99)
}

// probeBlock is how many probe mutations share one CPU-time sample.
const probeBlock = 100

// mutationProbe times n sequential mutations, alternating an add of the
// next fresh item with a delete of the item just added, so the catalog
// ends as it began. It records the mutation percentiles and, as
// mutate_cpu_ms, the median over blocks of probeBlock mutations of the
// process CPU time per mutation, and returns the acknowledged mutations
// in order.
func mutationProbe(o *outcome, fresh *vec.Matrix, n int, add func([]float64) (int, error), remove func(int) error) []mutation {
	var adds, dels, blocks []float64
	var ops []mutation
	cpu0 := cpuTime()
	block0 := cpu0
	for j := 0; j < n; j++ {
		var op mutation
		var err error
		start := time.Now()
		if j%2 == 0 {
			op.vec = fresh.Row(j / 2)
			op.id, err = add(op.vec)
		} else {
			op.id, op.del = ops[len(ops)-1].id, true
			err = remove(op.id)
		}
		took := ms(time.Since(start))
		o.attempted++
		if err != nil {
			o.failed++
			o.violate("mutation %d: %v", j, err)
			break
		}
		if op.del {
			dels = append(dels, took)
		} else {
			adds = append(adds, took)
		}
		ops = append(ops, op)
		if len(ops)%probeBlock == 0 {
			now := cpuTime()
			blocks = append(blocks, ms(now-block0)/probeBlock)
			block0 = now
		}
	}
	if len(blocks) > 0 {
		o.e2e["mutate_cpu_ms"] = median(blocks)
	} else {
		o.e2e["mutate_cpu_ms"] = ms(cpuTime()-cpu0) / float64(len(ops))
	}
	o.setMutations("", adds, dels)
	return ops
}

// dataset is a workload's generated input.
type dataset struct {
	catalog *vec.Matrix // the initial items
	fresh   *vec.Matrix // profile items not in the catalog, for adds
	queries *vec.Matrix // profile users
	rng     *rand.Rand  // drives query order and zipf draws
}

// generate draws the workload's inputs from the profile with its Seed
// overridden by the run's seed.
func generate(w *workload, seed int64) (*dataset, error) {
	p, err := data.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	p.Seed = seed
	ds := data.Generate(p, w.n+w.fresh, w.queries, dim)
	return &dataset{
		catalog: ds.Items.Slice(0, w.n),
		fresh:   ds.Items.Slice(w.n, w.n+w.fresh),
		queries: ds.Queries,
		rng:     rand.New(rand.NewSource(seed*7919 + 17)),
	}, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters are the per-query stage counters the benchmark aggregates,
// whichever API reported them.
type counters struct {
	n, queries                                       int
	scanned, intHead, intFull, incremental, monotone int
	full                                             int
	scanTime                                         time.Duration
}

// setFracs stores the core layer's exact work ratios: the scanned share
// of the catalog, and each per-item outcome as a share of the scanned
// items.
func (c *counters) setFracs(o *outcome) {
	if c.n == 0 || c.scanned == 0 {
		return
	}
	sc := float64(c.scanned)
	o.layer["core.scan_frac"] = sc / float64(c.n)
	o.layer["core.pruned_int_head_frac"] = float64(c.intHead) / sc
	o.layer["core.pruned_int_full_frac"] = float64(c.intFull) / sc
	o.layer["core.pruned_incremental_frac"] = float64(c.incremental) / sc
	o.layer["core.pruned_monotone_frac"] = float64(c.monotone) / sc
	o.layer["core.full_product_frac"] = float64(c.full) / sc
	if c.scanTime > 0 {
		o.layer["core.scan_ns_per_scanned"] = float64(c.scanTime.Nanoseconds()) / sc
	}
}
