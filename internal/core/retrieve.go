package core

import (
	"context"
	"fmt"
	"math"

	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Retriever executes top-k queries against an Index (Algorithm 4). It
// owns one reusable query scratch buffer, which makes it a
// one-goroutine executor: concurrent queries need separate Retrievers
// over the same shared Index (BatchTopK gives each worker its own).
// Every call returns its own stage counters; nothing else persists
// between queries.
//
// Since the sharded-execution refactor the Retriever is a thin wrapper:
// all query preparation and scanning lives on the Index as
// prepareQuery / scanRange, parameterized by a queryState (per-query
// scratch) and an explicit row range, so the same code path serves both
// this single-scan Retriever (range [0, n), no shared threshold) and
// the per-shard kernel in Sharded (sub-ranges, shared threshold).
type Retriever struct {
	idx *Index
	qs  *queryState
}

// NewRetriever returns a query executor for the index.
func NewRetriever(idx *Index) *Retriever {
	return &Retriever{idx: idx, qs: idx.newQueryState()}
}

// queryState holds the per-query derived quantities of Algorithm 4
// lines 5–9 plus the scratch buffers they are computed into. It is
// written once per query by Index.prepareQuery and then read-only
// during the scan, so a single queryState may be shared by any number
// of concurrent scanRange calls over disjoint row ranges.
type queryState struct {
	// Scratch owned by this state (sized for the index it was created
	// for via Index.newQueryState).
	qbar      []float64
	qFloors   []int32
	qFloors16 []int16

	qNorm   float64 // ‖q‖ in the original space (used with the original ‖p‖ for Cauchy–Schwarz)
	barNorm float64 // ‖q̄‖ in the working space
	barTail float64 // ‖q̄^h‖ over coordinates w..d

	// Integer part.
	intOK       bool
	qSumAbsHead int64
	qSumAbsTail int64
	headFactor  float64 // maxq^ℓ·maxP^ℓ/e², converts head IU to a bound on q̄^ℓᵀp̄^ℓ
	tailFactor  float64

	// Reduction part.
	redOK      bool
	invBarNorm float64 // 1/‖q̄‖
	headConstQ float64 // (2/‖q̄‖)·Σ_{s<w} c_s·q̄_s
	hhTailQ    float64 // ‖q̂̂^h‖ = 2·sqrt(Σ_{s≥w}(q̄_s/‖q̄‖+c_s)²)
	kq         float64 // affine offset of the threshold map t → t′
}

// newQueryState allocates per-query scratch sized for this index.
func (idx *Index) newQueryState() *queryState {
	qs := &queryState{qbar: make([]float64, idx.d)}
	if id := idx.ints; id != nil {
		if id.floors16 != nil {
			qs.qFloors16 = make([]int16, idx.d)
		} else {
			qs.qFloors = make([]int32, idx.d)
		}
	}
	return qs
}

// Search returns the exact top-k inner products of q with the indexed
// items (Algorithm 4). Scores are computed in the working space; with the
// SVD transformation enabled they equal the original inner products up to
// float64 rounding (Theorem 1).
func (r *Retriever) Search(q []float64, k int) []topk.Result {
	res, _, _ := r.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher: the scan polls ctx every
// search.CheckStride items and returns the best-so-far partial top-k
// with an ErrDeadline-wrapping error on cancellation.
//
// When ctx carries an obs span, the two lifecycle stages of the
// single-scan path — the per-query transform (Algorithm 4 lines 5–9)
// and the pruning scan — are timed as "transform" and "scan" children,
// matching the names the sharded engine uses so stage-timing consumers
// need no per-topology cases. With no span in ctx every call is a nil
// no-op; nothing span-related happens per item.
func (r *Retriever) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	idx := r.idx
	if len(q) != idx.d {
		panic(fmt.Sprintf("core: query dim %d != item dim %d", len(q), idx.d))
	}
	var st search.Stats
	if k <= 0 {
		return nil, st, nil
	}
	sp := obs.SpanFrom(ctx)
	c := topk.New(k)
	tsp := sp.StartChild("transform")
	idx.prepareQuery(q, r.qs)
	tsp.End()
	ssp := sp.StartChild("scan")
	err := idx.scanRange(ctx, faults.HookFrom(ctx), r.qs, 0, idx.n, c, nil, &st)
	if ssp != nil {
		ssp.AttrInt("scanned", int64(st.Scanned))
		ssp.AttrInt("pruned", int64(st.TotalPruned()))
		ssp.AttrInt("fullProducts", int64(st.FullProducts))
		ssp.End()
	}
	return c.Results(), st, err
}

// scanRange runs Algorithm 4's scan loop over the sorted rows [lo, hi),
// offering survivors to c. It is the shared engine between the
// single-scan Retriever (lo=0, hi=n, shared=nil) and one shard of a
// Sharded kernel (a contiguous sub-range plus the cross-shard
// threshold). The range being contiguous in the norm-sorted order is
// what keeps the sorted-scan length break valid within a shard.
//
// Pruning is STRICT — a candidate is discarded only when its upper
// bound is strictly below the effective threshold — so together with
// the collector's canonical (score desc, ID asc) tie order, the set of
// surviving candidates is independent of how [0, n) is partitioned:
// anything pruned has score < t ≤ final k-th score and therefore ranks
// canonically below k retained items. shared, when non-nil, can only
// RAISE the effective threshold with published full-heap thresholds
// from other shards, which are themselves global lower bounds, so the
// argument is unchanged.
//
// ctx is polled every search.CheckStride items at SHARD-LOCAL indices
// (i−lo), so every shard polls on its first item and fault-hook
// CancelAtItem plans fire relative to each shard's own progress. On
// cancellation the error wraps search.ErrDeadline and c holds
// best-so-far results whose scores are true (working-space) inner
// products.
func (idx *Index) scanRange(ctx context.Context, hook *faults.Hook, qs *queryState, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	slack := idx.opts.PruneSlack
	done := ctx.Done()
	//fex:hot
	for i := lo; i < hi; i++ {
		local := i - lo
		if hook != nil || (done != nil && local&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, local); err != nil {
				return err
			}
		}
		t := shared.Floor(c.Threshold())
		lenBound := qs.qNorm * idx.norms[i] //fex:bound
		if lenBound < t {
			if !idx.opts.Unsorted {
				// Sorted by length: nothing later in this range can
				// qualify either.
				stats.PrunedByLength += hi - i
				return nil
			}
			stats.PrunedByLength++
			continue
		}
		stats.Scanned++
		v, ok := idx.coordinateScan(i, qs, t, slack, stats)
		if ok {
			// The collector applies the canonical threshold test itself
			// (strictly-better-than-root in (score desc, ID asc) order);
			// publish the tightened threshold for sibling shards once
			// the heap is full.
			if c.Push(idx.perm[i], v) && c.Len() == c.K() {
				shared.Publish(c.Threshold())
			}
		}
	}
	return nil
}

// prepareQuery transforms q into the working space and precomputes every
// per-query constant used by the staged pruning tests, writing into qs.
func (idx *Index) prepareQuery(q []float64, qs *queryState) {
	scratch := *qs
	*qs = queryState{qbar: scratch.qbar, qFloors: scratch.qFloors, qFloors16: scratch.qFloors16}
	qs.qNorm = vec.Norm(q)

	if idx.thin != nil {
		bar := idx.thin.TransformQuery(q)
		copy(qs.qbar, bar)
	} else {
		copy(qs.qbar, q)
	}
	qbar := qs.qbar
	qs.barNorm = vec.Norm(qbar)
	qs.barTail = vec.NormRange(qbar, idx.w, idx.d)

	if id := idx.ints; id != nil {
		qs.intOK = true
		maxQHead := vec.AbsMaxRange(qbar, 0, idx.w)
		maxQTail := vec.AbsMaxRange(qbar, idx.w, idx.d)
		for s, v := range qbar {
			var scaled float64
			if s < idx.w {
				if maxQHead > 0 {
					scaled = id.e * v / maxQHead
				}
			} else {
				if maxQTail > 0 {
					scaled = id.e * v / maxQTail
				}
			}
			f := int32(math.Floor(scaled))
			if qs.qFloors16 != nil {
				qs.qFloors16[s] = int16(f)
			} else {
				qs.qFloors[s] = f
			}
			a := int64(f)
			if a < 0 {
				a = -a
			}
			if s < idx.w {
				qs.qSumAbsHead += a
			} else {
				qs.qSumAbsTail += a
			}
		}
		qs.headFactor = maxQHead * id.headScale / id.e
		qs.tailFactor = maxQTail * id.tailScale / id.e
	}

	if rd := idx.red; rd != nil && qs.barNorm > 0 {
		qs.redOK = true
		qs.invBarNorm = 1 / qs.barNorm
		var headCQ, tailSq, sumCQ float64
		for s, v := range qbar {
			u := v*qs.invBarNorm + rd.c[s]
			sumCQ += rd.c[s] * v
			if s < idx.w {
				headCQ += rd.c[s] * v
			} else {
				tailSq += u * u
			}
		}
		qs.headConstQ = 2 * headCQ * qs.invBarNorm
		qs.hhTailQ = 2 * math.Sqrt(tailSq)
		qs.kq = -rd.b*rd.b + rd.sumC2 + 2*sumCQ*qs.invBarNorm
	}
}

// coordinateScan is Algorithm 5: the staged pruning cascade for one
// candidate. It returns the exact working-space product and true, or
// (0, false) when the candidate was pruned. Every prune test is STRICT
// (`< t − margin`), matching scanRange's invariant that pruned items
// have score strictly below the threshold.
func (idx *Index) coordinateScan(i int, qs *queryState, t, slack float64, stats *search.Stats) (float64, bool) {
	w, d := idx.w, idx.d
	qbar := qs.qbar
	row := idx.bar.Row(i)
	margin := slack * (math.Abs(t) + 1)
	ub1 := qs.barTail * idx.barTail[i] //fex:bound

	// Lines 2–8: integer upper bounds, partial (Eq. 6) then full (Eq. 3).
	// Under the ReductionFirst (SRI-order) ablation these move after the
	// reduction bound, where only the tail part remains useful.
	var bHead float64
	if qs.intOK && !idx.opts.ReductionFirst {
		id := idx.ints
		iuHead := idx.intDot(qs, i, 0, w) + qs.qSumAbsHead + id.sumAbsHead[i] + int64(w)
		bHead = float64(iuHead) * qs.headFactor //fex:bound
		if bHead+ub1 < t-margin {
			stats.PrunedByIntHead++
			return 0, false
		}
		if w < d {
			iuTail := idx.intDot(qs, i, w, d) + qs.qSumAbsTail + id.sumAbsTail[i] + int64(d-w)
			bTail := float64(iuTail) * qs.tailFactor //fex:bound
			if bHead+bTail < t-margin {
				stats.PrunedByIntFull++
				return 0, false
			}
		}
	}

	// Lines 9–13: exact partial product + Eq. 1 incremental pruning.
	if w >= d {
		stats.FullProducts++
		return vec.Dot(qbar, row), true
	}
	v := vec.DotRange(qbar, row, 0, w)
	if v+ub1 < t-margin {
		stats.PrunedByIncremental++
		return 0, false
	}

	// Lines 14–17: monotonicity-reduction pruning in the reduced space.
	if qs.redOK {
		rd := idx.red
		hhPartial := 2*v*qs.invBarNorm + rd.headConstP[i] + qs.headConstQ
		ub2 := qs.hhTailQ * rd.hhTail[i] //fex:bound
		if !math.IsInf(t, -1) {
			tPrime := 2*t*qs.invBarNorm + qs.kq
			hhMargin := slack * (math.Abs(tPrime) + 1)
			if hhPartial+ub2 < tPrime-hhMargin {
				stats.PrunedByMonotone++
				return 0, false
			}
		}
	}

	// SRI-order ablation: with the exact head v in hand, only the tail
	// integer bound can still avoid the remaining d−w multiplications.
	if qs.intOK && idx.opts.ReductionFirst {
		id := idx.ints
		iuTail := idx.intDot(qs, i, w, d) + qs.qSumAbsTail + id.sumAbsTail[i] + int64(d-w)
		bTail := float64(iuTail) * qs.tailFactor //fex:bound
		if v+bTail < t-margin {
			stats.PrunedByIntFull++
			return 0, false
		}
	}

	// Lines 18–20: finish the exact product.
	stats.FullProducts++
	return v + vec.DotRange(qbar, row, w, d), true
}

// intDot computes ⌊q̂⌋·⌊p̂ᵢ⌋ over coordinates [lo,hi) against either the
// int32 or the compact int16 floor storage.
func (idx *Index) intDot(qs *queryState, i, lo, hi int) int64 {
	d := idx.d
	id := idx.ints
	base := i * d
	if id.floors16 != nil {
		return vec.DotInt16(qs.qFloors16[lo:hi], id.floors16[base+lo:base+hi])
	}
	return vec.DotInt64(qs.qFloors[lo:hi], id.floors[base+lo:base+hi])
}

var _ search.Searcher = (*Retriever)(nil)
