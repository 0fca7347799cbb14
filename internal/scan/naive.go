// Package scan implements the sequential-scan retrieval baselines of
// Section 2.2: the Naive full scan, the Cauchy–Schwarz sorted scan SS
// with incremental pruning (Algorithms 1 and 2), and SS-L, the LEMP-style
// single-query variant operating on normalized vectors.
//
// Every baseline exposes its scan as a range-scan over a contiguous row
// interval, so the same code path serves both the classic single-scan
// SearchContext (range [0, n)) and one shard of the sharded execution
// engine (see the *Kernel types in kernel.go and DESIGN.md §11).
package scan

import (
	"context"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Naive scans every item and computes every inner product, tracking the
// top-k with a bounded heap — the paper's Naive baseline and the ground
// truth for all exactness tests.
type Naive struct {
	items *vec.Matrix
}

// NewNaive indexes the item matrix (rows are item vectors). The matrix is
// used as-is and must not be mutated afterwards.
func NewNaive(items *vec.Matrix) *Naive {
	return &Naive{items: items}
}

// Search returns the top-k of q: SearchContext without a deadline.
func (n *Naive) Search(q []float64, k int) []topk.Result {
	res, _, _ := n.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher: the scan polls ctx every
// search.CheckStride items and returns the best-so-far partial top-k
// with an ErrDeadline-wrapping error on cancellation.
func (n *Naive) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	var st search.Stats
	c := topk.New(k)
	err := n.scanRange(ctx, faults.HookFrom(ctx), q, 0, n.items.Rows, c, &st)
	return c.Results(), st, err
}

// scanRange scans rows [lo, hi), offering every inner product to c.
// ctx is polled at RANGE-LOCAL indices (i−lo) so each shard of a
// sharded scan polls at its own first item.
//
// Naive is the cheapest per-item scan in the repository (a bare dot
// product), so it is the one place where even a predictable per-item
// branch shows up in profiles. The loop is therefore split three ways:
// no guard at all when neither a hook nor a cancellable context is
// present, stride-sized tight chunks with one poll between chunks when
// only the context needs watching, and the fully guarded per-item loop
// only when a fault hook demands per-item OnItem calls.
// BenchmarkSearchContextOverhead in bench_test.go holds the first two
// paths within 1% of a guard-free scan at d = 1.
func (n *Naive) scanRange(ctx context.Context, hook *faults.Hook, q []float64, lo, hi int, c *topk.Collector, stats *search.Stats) error {
	done := ctx.Done()
	switch {
	case hook == nil && done == nil:
		//fex:hot
		for i := lo; i < hi; i++ {
			c.Push(i, vec.Dot(q, n.items.Row(i)))
		}
	case hook == nil:
		for base := lo; base < hi; base += search.CheckStride {
			if err := search.Poll(ctx, nil, base-lo); err != nil {
				stats.Scanned += base - lo
				stats.FullProducts += base - lo
				return err
			}
			end := base + search.CheckStride
			if end > hi {
				end = hi
			}
			//fex:hot
			for i := base; i < end; i++ {
				c.Push(i, vec.Dot(q, n.items.Row(i)))
			}
		}
	default:
		//fex:hot
		for i := lo; i < hi; i++ {
			if err := search.Poll(ctx, hook, i-lo); err != nil {
				stats.Scanned += i - lo
				stats.FullProducts += i - lo
				return err
			}
			c.Push(i, vec.Dot(q, n.items.Row(i)))
		}
	}
	stats.Scanned += hi - lo
	stats.FullProducts += hi - lo
	return nil
}

var _ search.Searcher = (*Naive)(nil)
