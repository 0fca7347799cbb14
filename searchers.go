package fexipro

import (
	"context"

	"fexipro/internal/batch"
	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/lemp"
	"fexipro/internal/method"
	"fexipro/internal/search"
	"fexipro/internal/vec"
)

// Options selects FEXIPRO's techniques and parameters. The zero value is
// the paper's recommended full configuration F-SIR with ρ=0.7, e=100.
type Options struct {
	// Variant names the technique combination: "F-SIR" (default), "F-S",
	// "F-I", "F-SI", "F-SR", or "F" for the bare sorted scan.
	Variant string
	// Rho sets the singular-value mass ratio that picks the checking
	// dimension w (default 0.7).
	Rho float64
	// E is the integer scaling parameter (default 100).
	E float64
	// W overrides the checking dimension (0 = derive from Rho).
	W int
	// CompactInts stores integer approximations as int16 (halving their
	// footprint); automatically falls back to int32 when E would
	// overflow.
	CompactInts bool
	// Shards splits the index into that many contiguous partitions of
	// the norm-sorted items, answered in parallel per query by the
	// sharded execution engine and merged into the exact canonical
	// top-k; results are bit-identical to the single-shard scan for
	// every shard count. Values ≤ 1 keep the classic sequential scan.
	Shards int
	// Workers bounds the per-query goroutine pool used when Shards > 1
	// (≤ 0 means GOMAXPROCS, clamped to Shards). Ignored for Shards ≤ 1.
	Workers int
}

// FEXIPRO is the framework's public handle: a preprocessed index plus a
// single-threaded query executor (or, with Options.Shards > 1, a
// sharded execution engine that answers each query with a bounded
// worker pool and merges per-shard heaps into the exact canonical
// top-k; see DESIGN.md §11). A handle serves one goroutine at a time:
// it reuses query scratch and keeps its last call's stats for
// LastStats. For concurrent querying, share the index via Clone-free
// Retriever() calls: each executor owns independent scratch state.
type FEXIPRO struct {
	wrap    // answers Search: r, or with Shards > 1 the engine
	idx     *core.Index
	r       *core.Retriever // SearchAbove's executor
	shards  int
	workers int
}

// New preprocesses items (rows are item vectors; copied) into a FEXIPRO
// index using the requested variant.
func New(items *Matrix, opts Options) (*FEXIPRO, error) {
	variant := opts.Variant
	if variant == "" {
		variant = "F-SIR"
	}
	copts, err := core.OptionsForVariant(variant)
	if err != nil {
		return nil, err
	}
	copts.Rho = opts.Rho
	copts.E = opts.E
	copts.W = opts.W
	copts.CompactInts = opts.CompactInts
	idx, err := core.NewIndex(items.m, copts)
	if err != nil {
		return nil, err
	}
	return newFEXIPRO(idx, opts.Shards, opts.Workers), nil
}

func newFEXIPRO(idx *core.Index, shards, workers int) *FEXIPRO {
	// The sequential retriever is always present: SearchAbove has no
	// sharded path, and with Shards ≤ 1 it also answers Search.
	f := &FEXIPRO{idx: idx, r: core.NewRetriever(idx), shards: 1, workers: workers}
	f.s = f.r
	if shards > 1 {
		kern := core.NewSharded(idx, shards)
		f.shards = kern.Shards() // clamped to the item count
		f.s = engine.New(kern, workers)
	}
	return f
}

// Retriever returns an additional query executor sharing this index;
// each executor may be used from one goroutine at a time. The executor
// inherits the instance's shard configuration.
func (f *FEXIPRO) Retriever() Searcher {
	if f.shards > 1 {
		return &wrap{s: engine.New(core.NewSharded(f.idx, f.shards), f.workers)}
	}
	return &wrap{s: core.NewRetriever(f.idx)}
}

// Shards reports the number of index shards answering each query (1 for
// the classic sequential scan).
func (f *FEXIPRO) Shards() int { return f.shards }

// SearchWorkers reports the effective per-query worker-pool size (1 for
// the classic sequential scan).
func (f *FEXIPRO) SearchWorkers() int {
	if e, ok := f.s.(*engine.Engine); ok {
		return e.Workers()
	}
	return 1
}

// W reports the checking dimension chosen during preprocessing.
func (f *FEXIPRO) W() int { return f.idx.W() }

// TopKAll answers the top-k lists for a whole query workload against the
// shared index, processing queries in decreasing norm order and sharding
// them across workers (≤ 0 for single-threaded). Results are in input
// order.
func (f *FEXIPRO) TopKAll(queries *Matrix, k, workers int) ([][]Result, error) {
	return f.TopKAllContext(context.Background(), queries, k, workers)
}

// TopKAllContext behaves like TopKAll but honours ctx: on cancellation
// it stops promptly and returns the per-query lists completed so far
// (unprocessed slots stay nil; the query cut short keeps its
// best-so-far partial) together with an ErrDeadline-wrapping error. A
// nil error flags every list as exact.
func (f *FEXIPRO) TopKAllContext(ctx context.Context, queries *Matrix, k, workers int) ([][]Result, error) {
	raw, err := core.BatchTopKContext(ctx, f.idx, queries.m, k, workers)
	if raw == nil {
		return nil, err
	}
	out := make([][]Result, len(raw))
	for i, rs := range raw {
		if rs != nil {
			out[i] = convertResults(rs)
		}
	}
	return out, err
}

var _ Searcher = (*FEXIPRO)(nil)

// Methods lists every retrieval method registered in this build, in
// registry order (the paper's table order with off-table methods
// interleaved). Any of these names — or their aliases, case-insensitive
// — works with NewMethod and PlannerOptions.Methods.
func Methods() []string { return method.Names() }

// MethodOptions tunes NewMethod. The zero value selects each method's
// documented defaults; fields a method does not use are ignored.
type MethodOptions struct {
	// SampleQueries drives LEMP-style checking-dimension tuning for
	// SS-L and LEMP (optional, may be nil).
	SampleQueries *Matrix
	// W is SS's checking dimension, or the FEXIPRO family's override for
	// the ρ-derived one (0 = derive).
	W int
	// Rho, E, CompactInts are the FEXIPRO family's preprocessing
	// parameters (zero values = paper defaults).
	Rho, E      float64
	CompactInts bool
	// LeafSize bounds tree leaves for BallTree/FastMKS/PCATree (0 = 20).
	LeafSize int
	// BucketSize is LEMP's norm-bucket size (0 = default).
	BucketSize int
	// SpillFraction is PCATree's spill overlap (0 = none).
	SpillFraction float64
	// Shards > 1 partitions the index and answers each query through the
	// sharded execution engine with Workers goroutines (DESIGN.md §11).
	Shards, Workers int
}

func (o MethodOptions) internal() method.BuildOptions {
	bo := method.BuildOptions{
		W: o.W, Rho: o.Rho, E: o.E, CompactInts: o.CompactInts,
		LeafSize: o.LeafSize, BucketSize: o.BucketSize, SpillFraction: o.SpillFraction,
	}
	if o.SampleQueries != nil {
		bo.SampleQueries = o.SampleQueries.m
	}
	return bo
}

// NewMethod builds any registered retrieval method by name (see
// Methods), resolving through the same registry as every tool in this
// repository.
func NewMethod(name string, items *Matrix, o MethodOptions) (Searcher, error) {
	s, err := method.Sharded(name, items.m, o.internal(), o.Shards, o.Workers)
	if err != nil {
		return nil, err
	}
	return &wrap{s: s}, nil
}

// builtin builds a registry method whose descriptor cannot fail for a
// valid matrix (the baselines below); the panic is unreachable by
// construction.
func builtin(name string, items *vec.Matrix, o method.BuildOptions) search.Searcher {
	s, err := method.Build(name, items, o)
	if err != nil {
		panic("fexipro: " + err.Error())
	}
	return s
}

// NewNaive returns the exhaustive-scan baseline (items referenced, not
// copied; do not mutate afterwards).
func NewNaive(items *Matrix) Searcher {
	return &wrap{s: builtin("Naive", items.m, method.BuildOptions{})}
}

// NewSS returns the Cauchy–Schwarz sorted scan with incremental pruning
// at checking dimension w (0 = default d/5).
func NewSS(items *Matrix, w int) Searcher {
	return &wrap{s: builtin("SS", items.m, method.BuildOptions{W: w})}
}

// NewSSL returns SS-L, the LEMP-style normalized-vector scan baseline.
// sampleQueries (optional, may be nil) drives LEMP-style w tuning.
func NewSSL(items *Matrix, sampleQueries *Matrix) Searcher {
	o := method.BuildOptions{}
	if sampleQueries != nil {
		o.SampleQueries = sampleQueries.m
	}
	return &wrap{s: builtin("SS-L", items.m, o)}
}

// NewBallTree returns the BallTree exact MIPS baseline of Ram & Gray
// (leafSize 0 = the paper's 20).
func NewBallTree(items *Matrix, leafSize int) Searcher {
	return &wrap{s: builtin("BallTree", items.m, method.BuildOptions{LeafSize: leafSize})}
}

// NewFastMKS returns the cover-tree max-kernel baseline (leafSize 0 =
// default 20).
func NewFastMKS(items *Matrix, leafSize int) Searcher {
	return &wrap{s: builtin("FastMKS", items.m, method.BuildOptions{LeafSize: leafSize})}
}

// NewPCATree returns the APPROXIMATE PCA-tree baseline of Bachrach et
// al.; spillFraction > 0 trades speed for quality.
func NewPCATree(items *Matrix, leafSize int, spillFraction float64) Searcher {
	return &wrap{s: builtin("PCATree", items.m, method.BuildOptions{LeafSize: leafSize, SpillFraction: spillFraction})}
}

// LEMP is the batch top-k join engine (Teflioudi et al.). Like every
// public handle it keeps its last call's stats for LastStats (for the
// batch calls, summed over the batch), so it serves one goroutine at a
// time.
type LEMP struct {
	wrap
	idx *lemp.Index
}

// NewLEMP indexes items for batch retrieval. sampleQueries (optional)
// tunes each bucket's checking dimension.
func NewLEMP(items *Matrix, bucketSize int, sampleQueries *Matrix) *LEMP {
	o := method.BuildOptions{BucketSize: bucketSize}
	if sampleQueries != nil {
		o.SampleQueries = sampleQueries.m
	}
	// The registry returns LEMP as a generic Searcher; the public LEMP
	// type keeps the concrete index for its batch TopKJoin API.
	idx := builtin("LEMP", items.m, o).(*lemp.Index)
	return &LEMP{wrap: wrap{s: idx}, idx: idx}
}

// TopKJoin returns the top-k list for every query row.
func (l *LEMP) TopKJoin(queries *Matrix, k int) [][]Result {
	out, _ := l.TopKJoinContext(context.Background(), queries, k, 1)
	return out
}

// TopKJoinContext behaves like TopKJoin but honours ctx and shards the
// query workload across workers (≤ 0 for single-threaded): on
// cancellation it stops promptly and returns the per-query lists
// completed so far (unprocessed slots stay nil; the query cut short
// keeps its best-so-far partial) together with an ErrDeadline-wrapping
// error. A nil error flags every list as exact.
func (l *LEMP) TopKJoinContext(ctx context.Context, queries *Matrix, k, workers int) ([][]Result, error) {
	raw, st, err := l.idx.TopKJoinContext(ctx, queries.m, k, workers)
	l.last = st
	if raw == nil {
		return nil, err
	}
	out := make([][]Result, len(raw))
	for i, rs := range raw {
		if rs != nil {
			out[i] = convertResults(rs)
		}
	}
	return out, err
}

var _ Searcher = (*LEMP)(nil)

// MiniBatch is the blocked-matrix-multiplication batch baseline.
type MiniBatch struct {
	mb *batch.MiniBatch
}

// NewMiniBatch creates a batched GEMM engine (batchSize ≤ 0 → 100,
// workers ≤ 0 → GOMAXPROCS).
func NewMiniBatch(items *Matrix, batchSize, workers int) *MiniBatch {
	return &MiniBatch{mb: batch.New(items.m, batch.Options{BatchSize: batchSize, Workers: workers})}
}

// TopKAll returns the top-k list for every query row.
func (m *MiniBatch) TopKAll(queries *Matrix, k int) [][]Result {
	out, _ := m.TopKAllContext(context.Background(), queries, k)
	return out
}

// TopKAllContext behaves like TopKAll but honours ctx between query
// batches: on cancellation it returns the batches completed so far
// (unprocessed query rows stay nil) with an ErrDeadline-wrapping error.
// Every filled slot holds the exact top-k for its query.
func (m *MiniBatch) TopKAllContext(ctx context.Context, queries *Matrix, k int) ([][]Result, error) {
	raw, err := m.mb.TopKAllContext(ctx, queries.m, k)
	out := make([][]Result, len(raw))
	for i, rs := range raw {
		if rs != nil {
			out[i] = convertResults(rs)
		}
	}
	return out, err
}
