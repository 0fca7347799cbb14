package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Kernel is the per-shard scan contract. A kernel owns a partitioned
// index (built once, read-only at query time) and knows how to scan one
// shard of it. The engine calls Prepare once per query and then Scan
// concurrently for distinct shards, so Scan must not mutate kernel
// state — all per-query scratch lives in the value returned by Prepare
// plus the per-shard collector the engine supplies.
type Kernel interface {
	// Shards returns the number of shards the kernel was built with.
	Shards() int

	// Prepare computes the per-query state shared READ-ONLY by every
	// shard scan (e.g. the SVD-transformed query, its norm, integer
	// floors). It must panic on dimension mismatch, matching the
	// single-scan searchers. The engine passes the returned value to
	// every Scan call for this query, from multiple goroutines, without
	// further synchronization.
	Prepare(q []float64) any

	// Scan runs the shard's part of the query: it offers candidates to
	// c (a collector private to this shard) and may tighten its pruning
	// with shared.Floor / contribute via shared.Publish once c is full.
	// On cancellation it returns an ErrDeadline-wrapping error after
	// leaving c with best-so-far results whose scores are true inner
	// products. hook, when non-nil, is the query's fault-injection hook
	// (read once from ctx by the engine) to pass to search.Poll with
	// SHARD-LOCAL item indices (so CancelAtItem fires relative to each
	// shard's own scan). The returned Stats count only this shard's
	// work; the engine aggregates.
	Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error)
}

// Observer receives one callback per completed shard scan (successful
// or cancelled) with the shard index, its wall-clock scan time, and its
// per-shard stage counters. The engine invokes it from worker
// goroutines, possibly concurrently; implementations must be
// thread-safe (the obs registry's histograms are).
type Observer func(shard int, seconds float64, st search.Stats)

// Engine fans a single query out across the shards of a Kernel using a
// bounded worker pool, then merges the per-shard heaps into the exact
// canonical global top-k. It implements search.Searcher.
//
// Exactness across shard counts: every kernel in this repository offers
// an S-invariant candidate multiset (each shard's pruning is justified
// against a threshold no larger than the final global k-th score, and
// pruning is strict), and the canonical collector retains a pure
// function of the offered multiset — so S=1 and S>1 return bit-identical
// IDs, scores, and tie order. See DESIGN.md §11.
//
// An Engine holds no per-query state: every SearchContext returns its
// own stats and reads its fault hook from ctx, so one Engine may serve
// any number of concurrent queries (kernels are read-only at query
// time). Install the observer before the first query.
type Engine struct {
	kern     Kernel
	workers  int
	observer Observer
}

// New returns an engine over kern answering each query with a pool of
// `workers` goroutines (clamped to the shard count; values < 1 mean
// GOMAXPROCS).
func New(kern Kernel, workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s := kern.Shards(); workers > s {
		workers = s
	}
	return &Engine{kern: kern, workers: workers}
}

// SetObserver installs (or, with nil, removes) the per-shard scan
// observer. It is configuration: call it before serving queries.
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// Workers returns the effective worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Search returns the top-k of q: SearchContext without a deadline.
func (e *Engine) Search(q []float64, k int) []topk.Result {
	res, _, _ := e.SearchContext(context.Background(), q, k)
	return res
}

// shardOut is one shard's contribution, filled in by a worker.
type shardOut struct {
	res  []topk.Result
	st   search.Stats
	err  error
	secs float64
}

// SearchContext implements search.Searcher; the returned Stats sum
// every shard's counters. On cancellation it merges whatever every
// shard had collected when it stopped and returns the canonical
// best-so-far partial top-k alongside an ErrDeadline-wrapping error;
// all returned scores remain true inner products because each kernel
// maintains that invariant per shard. A fault hook in ctx
// (faults.WithHook) reaches every shard scan; its CancelAtItem is
// shard-local (the first shard to pass that many items cancels the
// query).
//
// When ctx carries an obs span (tracing enabled for this query), the
// engine attaches the query-lifecycle tree under it: one "transform"
// child around Prepare, one "scan" child whose own children are the
// per-shard scans (annotated with shard, worker, queue wait, steal
// provenance, and stage counters), and one "merge" child around the
// canonical merge. With no span in ctx every call below is a nil no-op
// (DESIGN.md §13), so the untraced path costs one context lookup.
func (e *Engine) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	sp := obs.SpanFrom(ctx)
	hook := faults.HookFrom(ctx)
	tsp := sp.StartChild("transform")
	pq := e.kern.Prepare(q)
	tsp.End()
	shards := e.kern.Shards()
	outs := make([]shardOut, shards)
	shared := &search.SharedThreshold{}

	scanSp := sp.StartChild("scan")
	if scanSp != nil {
		scanSp.AttrInt("shards", int64(shards))
		scanSp.AttrInt("workers", int64(e.workers))
	}
	if e.workers <= 1 || shards == 1 {
		// Sequential path: no goroutines, no atomic traffic beyond the
		// shared-threshold loads the kernels do anyway. With one shard
		// this is within noise of the pre-sharding scan loop.
		// A cancelled shard means ctx is done; later shards return
		// promptly via their entry Poll, each recording a deterministic
		// (possibly empty) partial, so the loop never breaks early.
		for s := 0; s < shards; s++ {
			e.runShard(ctx, hook, pq, s, k, shared, &outs[s], scanSp, 0)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(e.workers)
		for w := 0; w < e.workers; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					s := int(next.Add(1)) - 1
					if s >= shards {
						return
					}
					e.runShard(ctx, hook, pq, s, k, shared, &outs[s], scanSp, w)
				}
			}(w)
		}
		wg.Wait()
	}
	scanSp.End()

	// Merge: push every shard's retained results into one canonical
	// collector. The collector's total order (score desc, ID asc) makes
	// the merged set independent of push order, so no cross-shard
	// ordering discipline is needed here.
	msp := sp.StartChild("merge")
	merged := topk.New(k)
	var st search.Stats
	var firstErr error
	candidates := 0
	for s := 0; s < shards; s++ {
		o := &outs[s]
		st.Add(o.st)
		candidates += len(o.res)
		// This push loop is bounded by O(shards·k) retained results, not
		// the catalog size — cancellation already happened inside the
		// shard scans, so a poll here would only delay the merge.
		//lint:ignore ctxpoll bounded merge of ≤ shards·k retained results
		for _, r := range o.res { //fex:hot
			merged.Push(r.ID, r.Score)
		}
		if o.err != nil && firstErr == nil {
			firstErr = o.err // lowest shard's error, deterministic
		}
	}
	if msp != nil {
		msp.AttrInt("candidates", int64(candidates))
		msp.End()
	}
	if firstErr != nil {
		return merged.Results(), st, search.Canceled(firstErr)
	}
	return merged.Results(), st, nil
}

// runShard executes one shard scan and records its output, stats,
// error, and wall time into out. When the query is traced (scanSp is
// non-nil) it opens one child span per shard under the scan span: the
// queueWaitMicros attribute is how long the shard sat in the pool's
// queue before a worker picked it up (time since the scan span
// started), and stolen marks shards taken beyond the pool's initial
// distribution (shard index ≥ worker count) — together the "where did
// the microseconds go" signal for partition skew and pool sizing.
func (e *Engine) runShard(ctx context.Context, hook *faults.Hook, pq any, s, k int, shared *search.SharedThreshold, out *shardOut, scanSp *obs.Span, worker int) {
	var ssp *obs.Span
	if scanSp != nil {
		wait := time.Since(scanSp.Start())
		ssp = scanSp.StartChild("shard")
		ssp.AttrInt("shard", int64(s))
		ssp.AttrInt("worker", int64(worker))
		ssp.AttrInt("queueWaitMicros", wait.Microseconds())
		if s >= e.workers {
			ssp.AttrInt("stolen", 1)
		}
	}
	c := topk.New(k)
	start := time.Now()
	st, err := e.kern.Scan(ctx, pq, s, c, shared, hook)
	secs := time.Since(start).Seconds()
	if ssp != nil {
		ssp.AttrInt("scanned", int64(st.Scanned))
		ssp.AttrInt("pruned", int64(st.TotalPruned()))
		ssp.AttrInt("fullProducts", int64(st.FullProducts))
		if err != nil {
			ssp.AttrStr("error", err.Error())
		}
		ssp.End()
	}
	out.res = c.Results()
	out.st = st
	out.err = err
	out.secs = secs
	if e.observer != nil {
		e.observer(s, secs, st)
	}
}

var _ search.Searcher = (*Engine)(nil)
