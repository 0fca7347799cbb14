package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"fexipro/internal/obs"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

const (
	// serveRate is serve_movielens' fixed reference rate (searches per
	// second): about half of its closed-loop throughput on a 2-core
	// host.
	serveRate = 1000
	// churnRate is churn_movielens' fixed offered rate (operations per
	// second, one in five a mutation).
	churnRate = 400
	// churnCheckpointEvery is the churn server's checkpoint cadence in
	// acknowledged mutations.
	churnCheckpointEvery = 500
	// mutateEvery makes every mutateEvery-th churn arrival a mutation.
	mutateEvery = 5
	// zipfS is the skew of the query popularity on the served workloads.
	zipfS = 1.2
)

// callRec is one traced search as the client saw it.
type callRec struct {
	traceID string
	client  time.Duration // send to last response byte
	took    time.Duration // the server's tookMicros
}

// searcher issues searches for one pass and checks their answers. Its
// methods are called from the load loops' workers.
type searcher struct {
	s       *served
	queries *vec.Matrix
	bodies  [][]byte
	draws   []int // zipf draws: the i-th search asks queries.Row(draws[i])
	traced  bool
	n       int // catalog size, for the scanned share

	mu       sync.Mutex
	ref      *reference //fex:guard mu
	want     [][]hit    //fex:guard mu
	cnt      counters   //fex:guard mu
	recs     []callRec  //fex:guard mu
	bad      []string   //fex:guard mu
	errs     []string   //fex:guard mu
	seen     []bool     //fex:guard mu
	searches int        //fex:guard mu
	repeats  int        //fex:guard mu
}

func newSearcher(s *served, ds *dataset, traced bool) (*searcher, error) {
	bodies, err := encodeQueries(ds.queries)
	if err != nil {
		return nil, err
	}
	z := rand.NewZipf(ds.rng, zipfS, 1, uint64(ds.queries.Rows-1))
	draws := make([]int, 1<<18)
	for i := range draws {
		draws[i] = int(z.Uint64())
	}
	return &searcher{s: s, queries: ds.queries, bodies: bodies, draws: draws, traced: traced, n: ds.catalog.Rows,
		seen: make([]bool, ds.queries.Rows)}, nil
}

// gate makes every later answer to one of the first gateQueries pool
// queries be checked against ref.
func (sr *searcher) gate(ref *reference) {
	want := make([][]hit, gateQueries)
	for i := range want {
		want[i] = ref.topK(sr.queries.Row(i), topK)
	}
	sr.mu.Lock()
	sr.ref, sr.want = ref, want
	sr.mu.Unlock()
}

// search issues the i-th draw and reports whether it succeeded with a
// correct answer.
func (sr *searcher) search(i int) bool {
	return sr.query(sr.draws[i%len(sr.draws)])
}

// query searches pool query qi.
func (sr *searcher) query(qi int) bool {
	start := time.Now()
	rep, err := sr.s.search(sr.bodies[qi])
	client := time.Since(start)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.searches++
	if sr.seen[qi] {
		sr.repeats++
	}
	sr.seen[qi] = true
	if err != nil {
		if len(sr.errs) < 5 {
			sr.errs = append(sr.errs, err.Error())
		}
		return false
	}
	sr.cnt.addWire(rep.Stats, sr.n)
	if sr.traced {
		sr.recs = append(sr.recs, callRec{traceID: rep.TraceID, client: client, took: time.Duration(rep.TookMicros) * time.Microsecond})
	}
	if sr.want != nil && qi < len(sr.want) {
		if err := sr.ref.check(sr.queries.Row(qi), sr.want[qi], rep.Results); err != nil {
			sr.bad = append(sr.bad, fmt.Sprintf("query %d: %v", qi, err))
			return false
		}
	}
	return true
}

// finish folds the searcher's findings into o.
func (sr *searcher) finish(o *outcome) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for _, b := range sr.bad {
		o.violate("served answer, %s", b)
	}
	if len(sr.errs) > 0 {
		o.info["search_errors"] = sr.errs
	}
	o.info["repeat_share"] = float64(sr.repeats) / float64(sr.searches)
	sr.cnt.setFracs(o)
}

// addWire accumulates one query's stage counters as the server
// reported them, over a catalog of n items.
func (c *counters) addWire(st obs.StageCounters, n int) {
	c.queries++
	c.n += n
	c.scanned += st.Scanned
	c.intHead += st.PrunedByIntHead
	c.intFull += st.PrunedByIntFull
	c.incremental += st.PrunedByIncremental
	c.monotone += st.PrunedByMonotone
	c.full += st.FullProducts
}

// startReps builds the server setupReps times, keeping the last, and
// records the median set-up time and the heap after it.
func startReps(o *outcome, cfg config, catalog *vec.Matrix, mk func() (server.Config, func(), error)) (*served, func(), error) {
	var s *served
	cleanup := func() {}
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
			cleanup()
			s = nil
		}
		heapMB()
		c, clean, err := mk()
		if err != nil {
			return nil, nil, err
		}
		var d time.Duration
		s, d, err = startServed(catalog, c, cfg.procs)
		if err != nil {
			clean()
			return nil, nil, err
		}
		cleanup = clean
		setups = append(setups, d.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["heap_mb"] = heapMB()
	return s, cleanup, nil
}

// runServe is serve_movielens: read traffic over loopback. Phases:
// closed loop with one connection per CPU, open loop at serveRate, and
// a probe of sequential adds and deletes.
func runServe(cfg config, traced bool) (*outcome, error) {
	w, _ := workloadByName("serve_movielens")
	ds, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	ref := newReference(ds.catalog, nil)
	s, cleanup, err := startReps(o, cfg, ds.catalog, func() (server.Config, func(), error) {
		return serverConfig(traced), func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	sr, err := newSearcher(s, ds, traced)
	if err != nil {
		return nil, err
	}
	sr.gate(ref)
	budget := time.Duration(cfg.seconds * float64(time.Second))

	// Phase a: closed loop.
	closedPhase(o, cfg, budget*45/100, sr)

	// Phase b: open loop at the reference rate.
	base := int(ds.rng.Int63n(int64(len(sr.draws))))
	n := int(serveRate * (budget * 45 / 100).Seconds())
	cpu0 := cpuTime()
	r := openLoop(serveRate, n, cfg.procs, serveRate, func(i int) bool { return sr.search(base + i) })
	cpu := cpuTime() - cpu0
	lat := openStats(o, r, func(int) bool { return true })
	o.pcts["rate_search_p50_ms"] = percentile(lat, 0.5)
	o.pcts["rate_search_p99_ms"] = percentile(lat, 0.99)
	o.e2e["cpu_ms_per_op"] = ms(cpu) / float64(len(lat))
	o.layer["bench.cpu_cores"] = cpu.Seconds() / r.wall.Seconds()

	// Phase c: sequential mutations over HTTP.
	ops := mutationProbe(o, ds.fresh, probeMutations, s.add, s.remove)
	for qi := 0; qi < gateQueries; qi++ {
		o.attempted++
		if !sr.query(qi) {
			o.failed++
		}
	}
	sr.finish(o)
	if err := serverLayers(o, s, sr); err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	if traced {
		if err := buildLayers(o, ds.catalog); err != nil {
			return nil, err
		}
		if err := replay(o, cfg, ds.catalog, ops); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// closedPhase runs the closed loop of searches and stores its
// throughput as search_qps and its median request latency as
// search_p50_ms.
func closedPhase(o *outcome, cfg config, dur time.Duration, sr *searcher) {
	completed, failed, wall, lat := closedLoop(cfg.procs, dur, sr.search)
	o.attempted += completed
	o.failed += failed
	o.e2e["search_qps"] = float64(completed-failed) / wall.Seconds()
	o.setPct("search_p50_ms", percentile(lat, 0.5))
	o.pcts["search_p99_ms"] = percentile(lat, 0.99)
	o.info["closed_loop"] = map[string]any{"completed": completed, "failed": failed, "seconds": wall.Seconds()}
}

// openStats folds an open loop's failures, generator lag and late
// arrivals into o and returns the latencies (ms, from due time) of the
// successful arrivals that keep(i) selects.
func openStats(o *outcome, r *openResult, keep func(i int) bool) []float64 {
	var lat, lag []float64
	for i := 0; i < r.count; i++ {
		o.attempted++
		lag = append(lag, ms(r.lag[i]))
		if r.shed[i] || !r.ok[i] {
			o.failed++
			continue
		}
		if keep(i) {
			lat = append(lat, ms(r.lat[i]))
		}
	}
	sheds := 0
	for _, s := range r.shed {
		if s {
			sheds++
		}
	}
	p := percentile(lag, 0.99)
	o.layer["bench.gen_lag_p99_ms"] = p.Value
	o.pcts["bench.gen_lag_p99_ms"] = p
	o.layer["bench.late_arrivals"] = float64(r.late)
	o.info["open_loop"] = map[string]any{"arrivals": r.count, "client_sheds": sheds, "late": r.late, "seconds": r.wall.Seconds()}
	return lat
}

// spanJSON is the part of a /debug/queries span tree the benchmark
// reads.
type spanJSON struct {
	Name     string     `json:"name"`
	Micros   int64      `json:"durationMicros"`
	Children []spanJSON `json:"children"`
}

// child returns the first child span with the name (zero if none).
func (s spanJSON) child(name string) spanJSON {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return spanJSON{}
}

// serverLayers reads the guard counters from /metrics and, on a traced
// pass, splits every traced search's client latency into transport
// (client minus handler), codec (handler minus tookMicros), lock wait
// (tookMicros minus the engine's transform, scan and merge spans) and
// the engine and core spans themselves. Times are means per search.
func serverLayers(o *outcome, s *served, sr *searcher) error {
	for name, metric := range map[string]string{
		"server.guard_sheds":    "fexserve_guard_sheds_total",
		"server.guard_timeouts": "fexserve_guard_timeouts_total",
	} {
		v, err := s.counter(metric)
		if err != nil {
			return err
		}
		o.layer[name] = v
	}
	if !sr.traced {
		return nil
	}
	code, body, err := s.do(http.MethodGet, "/debug/queries", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("debug/queries: status %d", code)
	}
	var dq struct {
		Entries []struct {
			TraceID string   `json:"traceId"`
			Method  string   `json:"method"`
			Span    spanJSON `json:"span"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &dq); err != nil {
		return fmt.Errorf("debug/queries: %w", err)
	}
	spans := make(map[string]spanJSON, len(dq.Entries))
	for _, e := range dq.Entries {
		if e.Method == "search" {
			spans[e.TraceID] = e.Span
		}
	}
	var transport, codec, lock, transform, scan, merge, shard []float64
	sr.mu.Lock()
	recs := sr.recs
	scanned := sr.cnt.scanned
	sr.mu.Unlock()
	var shardTotal time.Duration
	for _, rc := range recs {
		sp, ok := spans[rc.traceID]
		h, hok := s.timed.handlerTime(rc.traceID)
		if !ok || !hok {
			continue
		}
		t, sc, m := sp.child("transform"), sp.child("scan"), sp.child("merge")
		var sh int64
		for _, c := range sc.Children {
			sh += c.Micros
		}
		stages := time.Duration(t.Micros+sc.Micros+m.Micros) * time.Microsecond
		transport = append(transport, us(rc.client-h))
		codec = append(codec, us(h-rc.took))
		lock = append(lock, us(rc.took-stages))
		transform = append(transform, float64(t.Micros))
		scan = append(scan, float64(sc.Micros))
		merge = append(merge, float64(m.Micros))
		shard = append(shard, float64(sh))
		shardTotal += time.Duration(sh) * time.Microsecond
	}
	o.info["traced_searches"] = map[string]any{"client": len(recs), "joined": len(transport)}
	o.layer["server.transport_us"] = mean(transport)
	o.layer["server.codec_us"] = mean(codec)
	o.layer["server.lock_wait_us"] = mean(lock)
	o.layer["engine.transform_us"] = mean(transform)
	o.layer["engine.scan_us"] = mean(scan)
	o.layer["engine.merge_us"] = mean(merge)
	o.layer["core.transform_us"] = mean(transform)
	o.layer["core.scan_us"] = mean(shard)
	if scanned > 0 && len(transport) > 0 {
		// Scale the joined searches' scan time to all searches' counters.
		o.layer["core.scan_ns_per_scanned"] = float64(shardTotal.Nanoseconds()) / float64(scanned) * float64(len(recs)) / float64(len(transport))
	}
	return nil
}

// runChurn is churn_movielens: durable mutations beside reads. Phases:
// open loop at churnRate where every fifth arrival alternates an add of
// a fresh item with a delete of an item the benchmark added, a closed
// loop of reads over the churned catalog, checked against the
// benchmark's own model of it, and a probe of durable mutations.
func runChurn(cfg config, traced bool) (*outcome, error) {
	w, _ := workloadByName("churn_movielens")
	ds, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	s, cleanup, err := startReps(o, cfg, ds.catalog, func() (server.Config, func(), error) {
		dir, err := os.MkdirTemp(cfg.scratch, "churn-")
		if err != nil {
			return server.Config{}, nil, err
		}
		c := serverConfig(traced)
		c.DataDir = dir
		c.CheckpointEvery = churnCheckpointEvery
		return c, func() { _ = os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	sr, err := newSearcher(s, ds, traced)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	n := int(churnRate * (budget * 65 / 100).Seconds())
	half := ds.fresh.Rows / 2
	m := &churnModel{live: make(map[int][]float64, ds.catalog.Rows), fresh: ds.fresh.Slice(0, half), deleted: make([]bool, n/mutateEvery+1)}
	for i := 0; i < ds.catalog.Rows; i++ {
		m.live[i] = ds.catalog.Row(i)
	}
	base := int(ds.rng.Int63n(int64(len(sr.draws))))
	cpu0 := cpuTime()
	r := openLoop(churnRate, n, cfg.procs, churnRate, func(i int) bool {
		if i%mutateEvery == mutateEvery-1 {
			return m.mutate(s, i/mutateEvery)
		}
		return sr.search(base + i)
	})
	cpu := cpuTime() - cpu0
	isSearch := func(i int) bool { return i%mutateEvery != mutateEvery-1 }
	lat := openStats(o, r, isSearch)
	o.pcts["rate_search_p50_ms"] = percentile(lat, 0.5)
	o.pcts["rate_search_p99_ms"] = percentile(lat, 0.99)
	var adds, dels []float64
	for i := 0; i < r.count; i++ {
		if isSearch(i) || r.shed[i] || !r.ok[i] {
			continue
		}
		if m.deleted[i/mutateEvery] {
			dels = append(dels, ms(r.lat[i]))
		} else {
			adds = append(adds, ms(r.lat[i]))
		}
	}
	o.setMutations("rate_", adds, dels)
	o.e2e["cpu_ms_per_op"] = ms(cpu) / float64(len(lat)+len(adds)+len(dels))
	o.layer["bench.cpu_cores"] = cpu.Seconds() / r.wall.Seconds()
	m.mu.Lock()
	ops := m.ops
	errs := m.errs
	model := m.live
	m.mu.Unlock()
	if len(errs) > 0 {
		o.info["mutation_errors"] = errs
	}

	// Traffic has stopped: from here on every sampled answer must match
	// brute force over the model of the live catalog.
	sr.gate(referenceFromModel(model, dim))
	closedPhase(o, cfg, budget*25/100, sr)

	// Durable mutations one at a time: each add and delete is fsynced to
	// the WAL before it is acknowledged, and every added item is deleted
	// again, so the model still holds.
	ops = append(ops, mutationProbe(o, ds.fresh.Slice(half, ds.fresh.Rows), probeMutations, s.add, s.remove)...)
	o.info["acknowledged_mutations"] = len(ops)
	o.info["checkpoints"] = len(ops) / churnCheckpointEvery
	for qi := 0; qi < gateQueries; qi++ {
		o.attempted++
		if !sr.query(qi) {
			o.failed++
		}
	}
	sr.finish(o)
	if err := serverLayers(o, s, sr); err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	if traced {
		if err := buildLayers(o, ds.catalog); err != nil {
			return nil, err
		}
		if err := replay(o, cfg, ds.catalog, ops); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// churnModel is the benchmark's own model of the churned catalog: the
// live items by ID, the items it added and may delete (oldest first),
// and every acknowledged mutation in acknowledgement order.
type churnModel struct {
	fresh *vec.Matrix
	// deleted[j] records whether mutation j was a delete; each entry is
	// written by the one worker performing it and read after the loop.
	deleted []bool

	mu    sync.Mutex
	live  map[int][]float64 //fex:guard mu
	added []int             //fex:guard mu
	next  int               //fex:guard mu
	ops   []mutation        //fex:guard mu
	errs  []string          //fex:guard mu
}

// mutate performs the j-th mutation: even j adds the next fresh item,
// odd j deletes the oldest item the benchmark added (adding instead if
// none is acknowledged yet).
func (m *churnModel) mutate(s *served, j int) bool {
	m.mu.Lock()
	del := j%2 == 1 && len(m.added) > 0
	var id int
	var v []float64
	if del {
		id, m.added = m.added[0], m.added[1:]
	} else {
		v = m.fresh.Row(m.next % m.fresh.Rows)
		m.next++
	}
	m.mu.Unlock()
	m.deleted[j] = del
	var err error
	if del {
		err = s.remove(id)
	} else {
		id, err = s.add(v)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		if len(m.errs) < 5 {
			m.errs = append(m.errs, err.Error())
		}
		return false
	}
	if del {
		delete(m.live, id)
	} else {
		m.live[id] = v
		m.added = append(m.added, id)
	}
	m.ops = append(m.ops, mutation{del: del, id: id, vec: v})
	return true
}
