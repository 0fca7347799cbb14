package core

import (
	"context"
	"fmt"
	"math"

	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// DynamicIndex serves exact top-k retrieval over an item catalog that
// changes online — the deployment reality (new items arrive, items are
// retired) that a preprocessed index must absorb.
//
// The catalog is split into S shards by the stable mapping
// shard(id) = id mod S, and each shard is an independent two-tier
// structure: a preprocessed FEXIPRO index over the bulk of the shard's
// items, a small unindexed delta buffer scanned exhaustively, and
// tombstones for deletions. When a shard's pending changes exceed
// RebuildFraction of ITS indexed size, only that shard is rebuilt — an
// Add or Delete never pays for more than 1/S of the catalog, dropping
// the amortized rebuild cost by ~S× versus a monolithic index. Queries
// fan out across the shards through the sharded execution engine
// (DESIGN.md §11) and merge into the exact canonical global top-k.
//
// Unlike the static sharded kernels, per-shard preprocessing means each
// shard applies its OWN SVD/scaling transform, so scores agree with a
// monolithic index to within float tolerance but are not bit-comparable
// across shard counts. Results are still exact: every returned score is
// the item's verified inner product.
//
// Searches keep no state in the index: each call returns its own stage
// counters, reads its fault hook from ctx, and prepares its query into
// per-call scratch. Any number of searches may therefore run at once;
// mutations (Add, Delete and their Context forms) must exclude them.
type DynamicIndex struct {
	opts    Options
	d       int
	rebuild float64

	items     *vec.Matrix // full catalog in insertion order (live + dead)
	dead      map[int]bool
	deadCount int // total live→dead transitions ever

	shards []*dynShard
	eng    *engine.Engine
}

// dynShard is one shard's two-tier state: its preprocessed main index
// over the shard's bulk, the delta buffer of not-yet-indexed additions,
// and the count of deletions hitting the current main since its build.
type dynShard struct {
	main       *Index
	mainIDs    []int // catalog IDs covered by main (ascending; positions = index rows)
	delta      []int // catalog IDs not yet in main
	deltaItems [][]float64
	deadInMain int
	rebuilds   int // number of times this shard's main index has been built
}

// DefaultRebuildFraction triggers a rebuild when a shard's pending
// changes exceed 20% of its indexed items.
const DefaultRebuildFraction = 0.2

// NewDynamicIndex starts a single-shard dynamic index from an initial
// catalog (may be empty: pass a 0×d matrix). rebuildFraction ≤ 0
// selects the default.
func NewDynamicIndex(initial *vec.Matrix, opts Options, rebuildFraction float64) (*DynamicIndex, error) {
	return NewDynamicIndexSharded(initial, opts, rebuildFraction, 1, 1)
}

// NewDynamicIndexSharded starts a dynamic index with `shards`
// independent catalog shards (values < 1 mean 1) queried through a pool
// of `workers` goroutines (clamped like engine.New). More shards cut
// the amortized rebuild cost of Add/Delete by ~shards×; single-item
// updates only ever rebuild the one shard that owns the item.
func NewDynamicIndexSharded(initial *vec.Matrix, opts Options, rebuildFraction float64, shards, workers int) (*DynamicIndex, error) {
	if initial.Cols <= 0 {
		return nil, fmt.Errorf("core: dynamic index needs a positive dimension, got %d", initial.Cols)
	}
	if rebuildFraction <= 0 {
		rebuildFraction = DefaultRebuildFraction
	}
	if shards < 1 {
		shards = 1
	}
	di := &DynamicIndex{
		opts:    opts.withDefaults(),
		d:       initial.Cols,
		rebuild: rebuildFraction,
		items:   initial.Clone(),
		dead:    make(map[int]bool),
		shards:  make([]*dynShard, shards),
	}
	for s := range di.shards {
		di.shards[s] = &dynShard{}
	}
	di.eng = engine.New(&dynKernel{di: di}, workers)
	if initial.Rows > 0 {
		for s := range di.shards {
			if err := di.rebuildShard(context.Background(), s); err != nil {
				return nil, err
			}
		}
	}
	return di, nil
}

// Len returns the number of live items.
func (di *DynamicIndex) Len() int { return di.items.Rows - di.deadCount }

// Shards returns the number of catalog shards.
func (di *DynamicIndex) Shards() int { return len(di.shards) }

// Rebuilds returns, per shard, how many times that shard's main index
// has been built (including the initial build). The sum across shards
// measures total rebuild work: with S shards a stream of updates
// triggers ~the same TOTAL number of rebuilds, but each one costs only
// ~1/S of a monolithic rebuild.
func (di *DynamicIndex) Rebuilds() []int {
	out := make([]int, len(di.shards))
	for s, sh := range di.shards {
		out[s] = sh.rebuilds
	}
	return out
}

// shardOf returns the shard owning catalog ID id (stable mapping).
func (di *DynamicIndex) shardOf(id int) *dynShard { return di.shards[id%len(di.shards)] }

// Add inserts an item and returns its stable catalog ID. Only the
// owning shard (id mod Shards) absorbs the update or rebuilds.
func (di *DynamicIndex) Add(item []float64) (int, error) {
	return di.AddContext(context.Background(), item)
}

// AddContext behaves like Add; when ctx carries an obs span the
// mutation's hidden cost — the owning shard's rebuild, if this update
// triggers one — is timed as a "rebuild" child span, so a slow-query
// log can tell a 50µs delta append from a 50ms one-shard rebuild.
func (di *DynamicIndex) AddContext(ctx context.Context, item []float64) (int, error) {
	if len(item) != di.d {
		return 0, fmt.Errorf("core: item dim %d != %d", len(item), di.d)
	}
	for s, v := range item {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("core: item coordinate %d is not finite", s)
		}
	}
	id := di.items.Rows
	grown := vec.NewMatrix(id+1, di.d)
	copy(grown.Data, di.items.Data)
	copy(grown.Row(id), item)
	di.items = grown
	sh := di.shardOf(id)
	sh.delta = append(sh.delta, id)
	sh.deltaItems = append(sh.deltaItems, vec.Clone(item))
	return id, di.maybeRebuild(ctx, id%len(di.shards))
}

// Delete retires an item by catalog ID. Deleting an unknown or already
// deleted ID is an error. Only the owning shard can be rebuilt.
func (di *DynamicIndex) Delete(id int) error {
	return di.DeleteContext(context.Background(), id)
}

// DeleteContext behaves like Delete with AddContext's span semantics.
func (di *DynamicIndex) DeleteContext(ctx context.Context, id int) error {
	if id < 0 || id >= di.items.Rows {
		return fmt.Errorf("core: delete of unknown item %d", id)
	}
	if di.dead[id] {
		return fmt.Errorf("core: item %d already deleted", id)
	}
	di.dead[id] = true
	di.deadCount++
	sh := di.shardOf(id)
	if sh.inMain(id) {
		sh.deadInMain++
	}
	return di.maybeRebuild(ctx, id%len(di.shards))
}

// inMain reports whether a catalog ID is covered by the shard's current
// main index (mainIDs is ascending by construction).
func (sh *dynShard) inMain(id int) bool {
	lo, hi := 0, len(sh.mainIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case sh.mainIDs[mid] == id:
			return true
		case sh.mainIDs[mid] < id:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// maybeRebuild rebuilds shard s when its pending changes exceed the
// rebuild fraction of its own indexed size.
func (di *DynamicIndex) maybeRebuild(ctx context.Context, s int) error {
	sh := di.shards[s]
	mainSize := len(sh.mainIDs)
	pending := len(sh.delta) + sh.deadInMain
	if mainSize == 0 || float64(pending) > di.rebuild*float64(mainSize) {
		return di.rebuildShard(ctx, s)
	}
	return nil
}

// rebuildShard folds shard s's delta and drops its tombstones into a
// fresh preprocessed index over only that shard's live items. A traced
// mutation (span in ctx) gets a "rebuild" child annotated with the
// shard, its live size, and the pending work that was folded in.
func (di *DynamicIndex) rebuildShard(ctx context.Context, s int) error {
	sh := di.shards[s]
	_, rsp := obs.StartSpan(ctx, "rebuild")
	if rsp != nil {
		rsp.AttrInt("shard", int64(s))
		rsp.AttrInt("deltaFolded", int64(len(sh.delta)))
		rsp.AttrInt("tombstonesDropped", int64(sh.deadInMain))
		defer rsp.End()
	}
	S := len(di.shards)
	live := make([]int, 0, (di.items.Rows+S-1)/S)
	for id := s; id < di.items.Rows; id += S {
		if !di.dead[id] {
			live = append(live, id)
		}
	}
	rsp.AttrInt("items", int64(len(live)))
	sh.delta = nil
	sh.deltaItems = nil
	sh.deadInMain = 0
	if len(live) == 0 {
		sh.main, sh.mainIDs = nil, nil
		return nil
	}
	compact := vec.NewMatrix(len(live), di.d)
	for row, id := range live {
		copy(compact.Row(row), di.items.Row(id))
	}
	idx, err := NewIndex(compact, di.opts)
	if err != nil {
		return err
	}
	sh.main = idx
	sh.mainIDs = live
	sh.rebuilds++
	// Tombstones for pre-rebuild IDs are now compacted away, but keep
	// the dead set for ID-validity checks.
	return nil
}

// SetShardObserver installs (or, with nil, removes) the engine's
// per-shard scan observer — one callback per completed shard scan with
// the shard index, its wall time, and its stage counters. Serving
// layers use it to expose per-shard latency (obs.ShardScanObserver).
// It is configuration: call it before serving queries.
func (di *DynamicIndex) SetShardObserver(o engine.Observer) { di.eng.SetObserver(o) }

// dynKernel routes DynamicIndex queries through the sharded execution
// engine: each shard scan covers one catalog shard's delta buffer and
// its main index, filtering tombstones and remapping index rows to
// stable catalog IDs before offering candidates.
type dynKernel struct {
	di *DynamicIndex
}

// dynQuery is the per-query state: the raw query for delta dots, plus
// one prepared FEXIPRO query state per shard with a main index (each
// shard's transform differs, so the states are per-shard).
type dynQuery struct {
	q      []float64
	states []*queryState
}

// Shards implements engine.Kernel.
func (k *dynKernel) Shards() int { return len(k.di.shards) }

// Prepare implements engine.Kernel.
func (k *dynKernel) Prepare(q []float64) any {
	if len(q) != k.di.d {
		panic(fmt.Sprintf("core: query dim %d != %d", len(q), k.di.d))
	}
	dq := &dynQuery{q: q, states: make([]*queryState, len(k.di.shards))}
	for s, sh := range k.di.shards {
		if sh.main != nil {
			qs := sh.main.newQueryState()
			sh.main.prepareQuery(q, qs)
			dq.states[s] = qs
		}
	}
	return dq
}

// Scan implements engine.Kernel: shard s's delta buffer exhaustively,
// then its main index with a (k + deadInMain) over-fetch so tombstoned
// rows inside main cannot starve the live result set. Poll/fault
// indices are shard-local.
func (k *dynKernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	di := k.di
	sh := di.shards[shard]
	dq := pq.(*dynQuery)
	var st search.Stats
	done := ctx.Done()
	for pos, id := range sh.delta {
		if hook != nil || (done != nil && pos&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, pos); err != nil {
				return st, err
			}
		}
		if di.dead[id] {
			continue
		}
		st.Scanned++
		st.FullProducts++
		if c.Push(id, vec.Dot(dq.q, sh.deltaItems[pos])) && c.Len() == c.K() {
			shared.Publish(c.Threshold())
		}
	}
	if sh.main == nil {
		return st, nil
	}
	// The inner collector's (k + deadInMain)-th threshold is still a
	// valid global lower bound — at most deadInMain of its retained
	// items are dead, so at least k live items score at or above it —
	// which lets the main scan both publish to and prune against the
	// engine's shared threshold.
	inner := topk.New(c.K() + sh.deadInMain)
	err := sh.main.scanRange(ctx, hook, dq.states[shard], 0, sh.main.n, inner, shared, &st)
	// The merge below is bounded by the k+deadInMain results the inner
	// collector retained; the cancellable work happened in scanRange.
	//lint:ignore ctxpoll bounded merge of ≤ k+deadInMain retained results
	for _, r := range inner.Results() {
		id := sh.mainIDs[r.ID]
		if di.dead[id] {
			continue
		}
		if c.Push(id, r.Score) && c.Len() == c.K() {
			shared.Publish(c.Threshold())
		}
	}
	return st, err
}

var _ engine.Kernel = (*dynKernel)(nil)

// Search returns the exact top-k over the live catalog; IDs are the
// stable catalog IDs returned by Add (or initial row indices).
func (di *DynamicIndex) Search(q []float64, k int) []topk.Result {
	res, _, _ := di.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher: all shards (delta buffers
// and main indexes) poll ctx and a cancellation merges every shard's
// best-so-far into a partial top-k returned with an
// ErrDeadline-wrapping error. The stats sum every shard's delta and
// main scans for this one query.
func (di *DynamicIndex) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	if len(q) != di.d {
		panic(fmt.Sprintf("core: query dim %d != %d", len(q), di.d))
	}
	if k <= 0 {
		return nil, search.Stats{}, nil
	}
	return di.eng.SearchContext(ctx, q, k)
}

// SearchAbove returns every live item with qᵀp ≥ t, sorted by descending
// score.
func (di *DynamicIndex) SearchAbove(q []float64, t float64) []topk.Result {
	res, _, _ := di.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx in every
// shard, returning the sorted partial result set with an
// ErrDeadline-wrapping error on cancellation.
func (di *DynamicIndex) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, search.Stats, error) {
	if len(q) != di.d {
		panic(fmt.Sprintf("core: query dim %d != %d", len(q), di.d))
	}
	var st search.Stats
	done := ctx.Done()
	hook := faults.HookFrom(ctx)
	var out []topk.Result
	for _, sh := range di.shards {
		for pos, id := range sh.delta {
			if hook != nil || (done != nil && pos&search.StrideMask == 0) {
				if err := search.Poll(ctx, hook, pos); err != nil {
					topk.SortResults(out)
					return out, st, err
				}
			}
			if di.dead[id] {
				continue
			}
			st.Scanned++
			st.FullProducts++
			if v := vec.Dot(q, sh.deltaItems[pos]); v >= t {
				out = append(out, topk.Result{ID: id, Score: v})
			}
		}
		if sh.main == nil {
			continue
		}
		// Fresh query scratch per call: concurrent searches share the
		// shard's index, never its query state.
		res, err := sh.main.searchAbove(ctx, hook, sh.main.newQueryState(), q, t, &st)
		for _, r := range res {
			id := sh.mainIDs[r.ID]
			if di.dead[id] {
				continue
			}
			out = append(out, topk.Result{ID: id, Score: r.Score})
		}
		if err != nil {
			topk.SortResults(out)
			return out, st, err
		}
	}
	topk.SortResults(out)
	return out, st, nil
}

var _ search.Searcher = (*DynamicIndex)(nil)
