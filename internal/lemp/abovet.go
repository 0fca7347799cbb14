package lemp

import (
	"context"
	"fmt"
	"math"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// SearchAbove answers LEMP's original problem for one query: every item
// with qᵀp ≥ t, sorted by descending score. Buckets are visited in
// decreasing max-norm order and the scan stops at the first bucket whose
// best possible product is below t.
func (idx *Index) SearchAbove(q []float64, t float64) []topk.Result {
	res, _, _ := idx.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: the
// bucket scan polls cancellation every search.CheckStride items (and on
// every item when a fault hook is installed) and returns the (sorted)
// qualifying items found so far with an ErrDeadline-wrapping error. On
// cancellation the set may be missing qualifying items, but every
// returned score is a true inner product.
func (idx *Index) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, search.Stats, error) {
	if len(q) != idx.d {
		panic(fmt.Sprintf("lemp: query dim %d != item dim %d", len(q), idx.d))
	}
	var st search.Stats
	qNorm := vec.Norm(q)
	done := ctx.Done()
	hook := faults.HookFrom(ctx)
	pos := 0
	var out []topk.Result
	if qNorm == 0 {
		if t <= 0 {
			for bi := range idx.buckets {
				b := &idx.buckets[bi]
				for _, id := range b.ids {
					if hook != nil || (done != nil && pos&search.StrideMask == 0) {
						if err := search.Poll(ctx, hook, pos); err != nil {
							topk.SortResults(out)
							return out, st, err
						}
					}
					pos++
					out = append(out, topk.Result{ID: id, Score: 0})
				}
			}
			topk.SortResults(out)
		}
		return out, st, nil
	}
	qUnit := vec.Scaled(q, 1/qNorm)

	for bi := range idx.buckets {
		b := &idx.buckets[bi]
		if qNorm*b.maxNorm < t {
			for _, rest := range idx.buckets[bi:] {
				st.PrunedByLength += len(rest.ids)
			}
			break
		}
		if err := idx.scanBucketAbove(ctx, hook, done, &pos, b, qUnit, qNorm, t, &out, &st); err != nil {
			topk.SortResults(out)
			return out, st, err
		}
	}
	topk.SortResults(out)
	return out, st, nil
}

func (idx *Index) scanBucketAbove(ctx context.Context, hook *faults.Hook, done <-chan struct{}, pos *int, b *bucket, qUnit []float64, qNorm, t float64, out *[]topk.Result, stats *search.Stats) error {
	d := idx.d
	w := b.w
	qTail := vec.NormRange(qUnit, w, d)
	for i := 0; i < b.unit.Rows; i++ {
		if hook != nil || (done != nil && *pos&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, *pos); err != nil {
				return err
			}
		}
		*pos++
		lenBound := qNorm * b.norms[i]
		if lenBound < t {
			stats.PrunedByLength += b.unit.Rows - i
			return nil
		}
		stats.Scanned++
		theta := math.Inf(-1)
		if lenBound > 0 {
			theta = t / lenBound
		}
		row := b.unit.Row(i)
		var cos float64
		if w < d {
			cos = vec.DotRange(qUnit, row, 0, w)
			if cos+qTail*b.tailNorms[i] < theta {
				stats.PrunedByIncremental++
				continue
			}
			cos += vec.DotRange(qUnit, row, w, d)
		} else {
			cos = vec.Dot(qUnit, row)
		}
		stats.FullProducts++
		if v := cos * lenBound; v >= t {
			*out = append(*out, topk.Result{ID: b.ids[i], Score: v})
		}
	}
	return nil
}

// AboveJoin answers the batch above-t task: for every query row, all
// items with product ≥ t, plus the stage counters summed over the
// batch.
func (idx *Index) AboveJoin(queries *vec.Matrix, t float64) ([][]topk.Result, search.Stats) {
	out := make([][]topk.Result, queries.Rows)
	var acc search.Stats
	for i := 0; i < queries.Rows; i++ {
		res, st, _ := idx.SearchAboveContext(context.Background(), queries.Row(i), t)
		out[i] = res
		acc.Add(st)
	}
	return out, acc
}
