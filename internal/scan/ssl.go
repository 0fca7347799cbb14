package scan

import (
	"context"
	"fmt"
	"math"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// SSL is SS-L: the sequential scan with the LEMP optimizations that are
// effective for single-query top-k retrieval (Section 7.1). Inner
// products are computed over NORMALIZED vectors against the cosine
// threshold t/(‖q‖·‖p‖), with a coordinate-based check (LEMP-C style, on
// the query's dominant coordinate) before the incremental-pruning check
// (LEMP-I, Eq. 1 on unit vectors). The checking dimension w is tuned on
// sample queries, as LEMP does in its preprocessing phase.
type SSL struct {
	unit      *vec.Matrix // normalized item vectors, sorted by original norm desc
	perm      []int
	norms     []float64 // original ‖p‖ per sorted row
	tailNorms []float64 // ‖p'^h‖ on the unit vectors, coordinates w..d
	w         int
}

// SSLOptions configures SS-L construction.
type SSLOptions struct {
	// W fixes the checking dimension; ≤ 0 means tune (or default).
	W int
	// SampleQueries, when non-nil, drives LEMP-style w tuning: each
	// candidate w is evaluated on the samples and the cheapest wins.
	SampleQueries *vec.Matrix
	// SampleK is the k used while tuning (default 10).
	SampleK int
}

// NewSSL indexes items (rows are item vectors; copied, caller data kept
// intact).
func NewSSL(items *vec.Matrix, opts SSLOptions) *SSL {
	m := items.Clone()
	perm := m.SortRowsByNormDesc()
	d := m.Cols
	norms := m.RowNorms()
	unit := m
	for i := 0; i < unit.Rows; i++ {
		if norms[i] > 0 {
			vec.Scale(unit.Row(i), 1/norms[i])
		}
	}
	s := &SSL{unit: unit, perm: perm, norms: norms}

	switch {
	case opts.W > 0:
		s.setW(min(opts.W, d))
	case opts.SampleQueries != nil && d > 1:
		s.tuneW(opts.SampleQueries, opts.SampleK)
	default:
		s.setW(clampW(d/5, d))
	}
	return s
}

func (s *SSL) setW(w int) {
	d := s.unit.Cols
	s.w = w
	s.tailNorms = make([]float64, s.unit.Rows)
	for i := range s.tailNorms {
		s.tailNorms[i] = vec.NormRange(s.unit.Row(i), w, d)
	}
}

// tuneW evaluates candidate checking dimensions on the sample queries and
// keeps the one with the lowest modeled scan cost (dimensions touched).
func (s *SSL) tuneW(samples *vec.Matrix, k int) {
	if k <= 0 {
		k = 10
	}
	d := s.unit.Cols
	candidates := []int{}
	for _, frac := range []int{10, 5, 3, 2} {
		w := clampW(d/frac, d)
		if len(candidates) == 0 || candidates[len(candidates)-1] != w {
			candidates = append(candidates, w)
		}
	}
	bestW, bestCost := candidates[0], math.Inf(1)
	for _, w := range candidates {
		s.setW(w)
		var cost float64
		for i := 0; i < samples.Rows; i++ {
			_, st, _ := s.SearchContext(context.Background(), samples.Row(i), k)
			cost += float64(st.Scanned*w + st.FullProducts*(d-w))
		}
		if cost < bestCost {
			bestCost, bestW = cost, w
		}
	}
	s.setW(bestW)
}

// W returns the checking dimension in use.
func (s *SSL) W() int { return s.w }

// Search returns the top-k of q: SearchContext without a deadline.
func (s *SSL) Search(q []float64, k int) []topk.Result {
	res, _, _ := s.SearchContext(context.Background(), q, k)
	return res
}

// sslQuery is the per-query state shared read-only across shard scans.
type sslQuery struct {
	qNorm float64
	qUnit []float64
	qTail float64
	focus int
	qf    float64
	qRest float64
}

func (s *SSL) prepareQuery(q []float64) *sslQuery {
	d := s.unit.Cols
	if len(q) != d {
		panic(fmt.Sprintf("scan: query dim %d != item dim %d", len(q), d))
	}
	qs := &sslQuery{qNorm: vec.Norm(q)}
	if qs.qNorm == 0 {
		return qs
	}
	qs.qUnit = vec.Scaled(q, 1/qs.qNorm)
	qs.qTail = vec.NormRange(qs.qUnit, s.w, d)

	// Focus coordinate: the query's largest-magnitude unit coordinate.
	for j := 1; j < d; j++ {
		if math.Abs(qs.qUnit[j]) > math.Abs(qs.qUnit[qs.focus]) {
			qs.focus = j
		}
	}
	qs.qf = qs.qUnit[qs.focus]
	qs.qRest = math.Sqrt(math.Max(0, 1-qs.qf*qs.qf))
	return qs
}

// SearchContext implements search.Searcher: the scan polls ctx every
// search.CheckStride items and returns the best-so-far partial top-k
// with an ErrDeadline-wrapping error on cancellation.
func (s *SSL) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	qs := s.prepareQuery(q)
	var st search.Stats
	c := topk.New(k)
	err := s.scanRange(ctx, faults.HookFrom(ctx), qs, 0, s.unit.Rows, c, nil, &st)
	return c.Results(), st, err
}

// scanRange is the SS-L scan over the sorted rows [lo, hi). Pruning is
// STRICT against the max of the local and cross-shard thresholds, so
// the surviving candidate set is independent of how [0, n) is
// partitioned; ctx is polled at RANGE-LOCAL indices (i−lo).
func (s *SSL) scanRange(ctx context.Context, hook *faults.Hook, qs *sslQuery, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	d := s.unit.Cols
	if qs.qNorm == 0 {
		// Zero query: all inner products are zero; every row ties.
		// Offer the WHOLE range so the canonical collector retains the
		// same k IDs no matter how rows are split across shards.
		done := ctx.Done()
		for i := lo; i < hi; i++ {
			if hook != nil || (done != nil && (i-lo)&search.StrideMask == 0) {
				if err := search.Poll(ctx, hook, i-lo); err != nil {
					return err
				}
			}
			c.Push(s.perm[i], 0)
		}
		return nil
	}
	done := ctx.Done()
	//fex:hot
	for i := lo; i < hi; i++ {
		if hook != nil || (done != nil && (i-lo)&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, i-lo); err != nil {
				return err
			}
		}
		t := shared.Floor(c.Threshold())
		lenBound := qs.qNorm * s.norms[i] //fex:bound
		if lenBound < t {
			stats.PrunedByLength += hi - i
			return nil
		}
		stats.Scanned++
		row := s.unit.Row(i)
		// Cosine threshold: p can be discarded only if cos(q,p) is
		// strictly below t / (‖q‖‖p‖).
		theta := math.Inf(-1)
		if !math.IsInf(t, -1) {
			theta = t / lenBound
		}

		// Coordinate-based check on the focus coordinate.
		pf := row[qs.focus]
		if qs.qf*pf+qs.qRest*math.Sqrt(math.Max(0, 1-pf*pf)) < theta {
			stats.PrunedByIncremental++
			continue
		}

		// Incremental pruning on the unit vectors.
		var cos float64
		if s.w < d {
			cos = vec.DotRange(qs.qUnit, row, 0, s.w)
			if cos+qs.qTail*s.tailNorms[i] < theta {
				stats.PrunedByIncremental++
				continue
			}
			cos += vec.DotRange(qs.qUnit, row, s.w, d)
		} else {
			cos = vec.Dot(qs.qUnit, row)
		}
		stats.FullProducts++
		v := cos * lenBound
		if c.Push(s.perm[i], v) && c.Len() == c.K() {
			shared.Publish(c.Threshold())
		}
	}
	return nil
}

var _ search.Searcher = (*SSL)(nil)
