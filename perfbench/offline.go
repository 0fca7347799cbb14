package main

import (
	"context"
	"fmt"
	"time"

	"fexipro"
	"fexipro/internal/core"
	"fexipro/internal/obs"
	"fexipro/internal/svd"
	"fexipro/internal/vec"
)

// runOffline is offline_yahoo: the library kernel with no server in the
// way. Phases: set-up (fexipro.New, zero Options), single-goroutine
// Search over distinct queries, TopKAll with one worker per CPU, and a
// probe of direct core.DynamicIndex adds and deletes.
func runOffline(cfg config, traced bool) (*outcome, error) {
	w, _ := workloadByName("offline_yahoo")
	ds, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	n := ds.catalog.Rows
	ref := newReference(ds.catalog, nil)
	items := fexipro.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		copy(items.Row(i), ds.catalog.Row(i))
	}
	// The sequential phase draws from the first third of the query pool,
	// the batch phase from the rest; both gate their first queries.
	half := ds.queries.Rows / 3
	wantSeq := make([][]hit, gateQueries)
	wantBatch := make([][]hit, gateQueries)
	for i := 0; i < gateQueries; i++ {
		wantSeq[i] = ref.topK(ds.queries.Row(i), topK)
		wantBatch[i] = ref.topK(ds.queries.Row(half+i), topK)
	}

	var f *fexipro.FEXIPRO
	var setups []float64
	for r := 0; r < setupReps; r++ {
		f = nil
		heapMB() // collect the previous build so every build starts alike
		start := time.Now()
		f, err = fexipro.New(items, fexipro.Options{})
		if err != nil {
			return nil, fmt.Errorf("fexipro.New: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["heap_mb"] = heapMB()
	budget := time.Duration(cfg.seconds * float64(time.Second))

	// Phase 1: one query at a time, each timed alone.
	var lat []float64
	var cnt counters
	var transform []float64
	deadline := time.Now().Add(budget * 3 / 10)
	for i := 0; i < half && (i < gateQueries || time.Now().Before(deadline)); i++ {
		q := ds.queries.Row(i)
		var res []fexipro.Result
		var root *obs.Span
		start := time.Now()
		if traced {
			root = obs.NewRoot("search")
			res, err = f.SearchContext(obs.ContextWithSpan(context.Background(), root), q, topK)
			root.End()
		} else {
			res, err = f.SearchContext(context.Background(), q, topK)
		}
		took := time.Since(start)
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		lat = append(lat, ms(took))
		st := f.LastStats()
		if err := conserve(st, n); err != nil {
			o.violate("offline query %d: %v", i, err)
		}
		cnt.addPublic(st, n)
		if root != nil {
			transform = append(transform, us(root.ChildDuration("transform")))
			cnt.scanTime += root.ChildDuration("scan")
		}
		if i < gateQueries {
			if err := ref.check(q, wantSeq[i], publicHits(res)); err != nil {
				o.failed++
				o.violate("offline Search query %d: %v", i, err)
			}
		}
	}
	o.setPct("search_p50_ms", percentile(lat, 0.5))
	o.pcts["search_p99_ms"] = percentile(lat, 0.99)
	cnt.setFracs(o)
	if traced && cnt.queries > 0 {
		o.layer["core.transform_us"] = mean(transform)
		o.layer["core.scan_us"] = us(cnt.scanTime) / float64(cnt.queries)
	}

	// Phase 2: TopKAll over chunks of distinct queries, one worker per
	// CPU.
	const chunk = 1000
	var done, repeats int
	var batchWall time.Duration
	cpu0 := cpuTime()
	deadline = time.Now().Add(budget * 3 / 10)
	for lo := half; time.Now().Before(deadline) || lo == half; lo += chunk {
		if lo+chunk > ds.queries.Rows {
			lo = half
		}
		if done >= ds.queries.Rows-half {
			repeats += chunk // the pool is used up: queries repeat
		}
		qm := fexipro.NewMatrix(chunk, dim)
		for i := 0; i < chunk; i++ {
			copy(qm.Row(i), ds.queries.Row(lo+i))
		}
		start := time.Now()
		out, err := f.TopKAll(qm, topK, cfg.procs)
		batchWall += time.Since(start)
		o.attempted += chunk
		if err != nil {
			o.failed += chunk
			continue
		}
		done += chunk
		if lo == half {
			for i := 0; i < gateQueries; i++ {
				if err := ref.check(ds.queries.Row(half+i), wantBatch[i], publicHits(out[i])); err != nil {
					o.failed++
					o.violate("offline TopKAll query %d: %v", i, err)
				}
			}
		}
	}
	cpu := cpuTime() - cpu0
	o.e2e["search_qps"] = float64(done) / batchWall.Seconds()
	o.e2e["cpu_ms_per_op"] = ms(cpu) / float64(done)
	o.layer["bench.cpu_cores"] = cpu.Seconds() / batchWall.Seconds()
	o.info["sequential_queries"] = len(lat)
	o.info["batch_queries"] = done
	o.info["repeat_share"] = float64(repeats) / float64(len(lat)+done)
	f = nil // free the index before the next phase builds another

	// Phase 3: direct mutations on the kernel's dynamic index.
	opts, err := core.OptionsForVariant("F-SIR")
	if err != nil {
		return nil, err
	}
	di, err := core.NewDynamicIndex(ds.catalog, opts, 0)
	if err != nil {
		return nil, fmt.Errorf("core.NewDynamicIndex: %w", err)
	}
	ops := mutationProbe(o, ds.fresh, probeMutations, di.Add, di.Delete)
	// Every added item was deleted again: the index must answer as the
	// original catalog does.
	for i := 0; i < 8; i++ {
		if err := ref.check(ds.queries.Row(i), wantSeq[i], coreHits(di.Search(ds.queries.Row(i), topK))); err != nil {
			o.violate("offline dynamic index after probe, query %d: %v", i, err)
		}
	}
	di = nil // free it before the traced layers build more indexes

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

// addPublic accumulates one query's public stage counters over a
// catalog of n items.
func (c *counters) addPublic(st fexipro.Stats, n int) {
	c.queries++
	c.n += n
	c.scanned += st.Scanned
	c.intHead += st.PrunedByIntHead
	c.intFull += st.PrunedByIntFull
	c.incremental += st.PrunedByIncremental
	c.monotone += st.PrunedByMonotone
	c.full += st.FullProducts
}

func publicHits(rs []fexipro.Result) []hit {
	out := make([]hit, len(rs))
	for i, r := range rs {
		out[i] = hit{ID: r.ID, Score: r.Score}
	}
	return out
}

// buildLayers times the two set-up layers on the catalog: the SVD and
// the whole F-SIR index build (which includes an SVD of its own).
func buildLayers(o *outcome, catalog *vec.Matrix) error {
	opts, err := core.OptionsForVariant("F-SIR")
	if err != nil {
		return err
	}
	var svdS, buildS []float64
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		if _, err := svd.Decompose(catalog, 0); err != nil {
			return fmt.Errorf("svd.Decompose: %w", err)
		}
		svdS = append(svdS, time.Since(start).Seconds())
		start = time.Now()
		if _, err := core.NewIndex(catalog, opts); err != nil {
			return fmt.Errorf("core.NewIndex: %w", err)
		}
		buildS = append(buildS, time.Since(start).Seconds())
	}
	o.layer["svd.decompose_s"] = median(svdS)
	o.layer["core.build_s"] = median(buildS)
	return nil
}
