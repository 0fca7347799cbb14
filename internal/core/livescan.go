package core

import (
	"context"
	"fmt"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// LiveScan answers exact top-k over a DynamicIndex's live catalog by
// exhaustive inner products, with no index and no transform — the
// "don't index" arm of the query planner's scan-vs-index choice
// (DESIGN.md §16). It reads the catalog (items + tombstones) directly,
// so it always sees the current state and costs nothing at mutation
// time: no delta buffer, no rebuild, no preprocessing.
//
// LiveScan reads its fault hook from ctx, polls ctx every
// search.CheckStride items, and on cancellation returns the best-so-far
// partial top-k with an ErrDeadline-wrapping error — the same contract
// as every other searcher.
type LiveScan struct {
	di *DynamicIndex
}

// NewLiveScan returns an exhaustive-scan searcher over di's live
// catalog. It holds no state of its own; all catalog reads go through
// di, so it follows di's concurrency contract: any number of searches
// at once, excluded from di's mutations.
func NewLiveScan(di *DynamicIndex) *LiveScan { return &LiveScan{di: di} }

// SearchContext implements search.Searcher.
func (l *LiveScan) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	di := l.di
	if len(q) != di.d {
		panic(fmt.Sprintf("core: query dim %d != %d", len(q), di.d))
	}
	var st search.Stats
	if k <= 0 {
		return nil, st, nil
	}
	c := topk.New(k)
	done := ctx.Done()
	hook := faults.HookFrom(ctx)
	for id := 0; id < di.items.Rows; id++ {
		if hook != nil || (done != nil && id&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, id); err != nil {
				return c.Results(), st, err
			}
		}
		if di.dead[id] {
			continue
		}
		st.Scanned++
		st.FullProducts++
		c.Push(id, vec.Dot(q, di.items.Row(id)))
	}
	return c.Results(), st, nil
}

var _ search.Searcher = (*LiveScan)(nil)
