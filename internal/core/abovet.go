package core

import (
	"context"
	"fmt"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// SearchAbove returns every item whose inner product with q is at least
// t, sorted by descending score — the paper's "above-t" problem (its
// Section 9 future work; the original LEMP task). The whole pruning
// cascade applies unchanged because the threshold is constant: the
// sorted scan stops at the first item with ‖q‖·‖p‖ < t, and
// per-candidate bounds below t discard candidates without full products.
func (r *Retriever) SearchAbove(q []float64, t float64) []topk.Result {
	res, _, _ := r.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: the scan
// polls ctx every search.CheckStride items and returns the sorted
// best-so-far partial result with an ErrDeadline-wrapping error on
// cancellation.
func (r *Retriever) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, search.Stats, error) {
	var st search.Stats
	res, err := r.idx.searchAbove(ctx, faults.HookFrom(ctx), r.qs, q, t, &st)
	return res, st, err
}

// searchAbove is the above-t scan over the whole index, preparing q
// into the caller's scratch qs and adding its work to stats.
func (idx *Index) searchAbove(ctx context.Context, hook *faults.Hook, qs *queryState, q []float64, t float64, stats *search.Stats) ([]topk.Result, error) {
	if len(q) != idx.d {
		panic(fmt.Sprintf("core: query dim %d != item dim %d", len(q), idx.d))
	}
	idx.prepareQuery(q, qs)
	slack := idx.opts.PruneSlack
	done := ctx.Done()

	var out []topk.Result
	for i := 0; i < idx.n; i++ {
		if hook != nil || (done != nil && i&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, i); err != nil {
				topk.SortResults(out)
				return out, err
			}
		}
		if qs.qNorm*idx.norms[i] < t {
			if !idx.opts.Unsorted {
				stats.PrunedByLength += idx.n - i
				break
			}
			stats.PrunedByLength++
			continue
		}
		stats.Scanned++
		// The cascade prunes only when a bound drops BELOW t (strictly,
		// minus the safety margin), so items with qᵀp == t survive.
		v, ok := idx.coordinateScan(i, qs, t, slack, stats)
		if ok && v >= t {
			out = append(out, topk.Result{ID: idx.perm[i], Score: v})
		}
	}
	topk.SortResults(out)
	return out, nil
}
