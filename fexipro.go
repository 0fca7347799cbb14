// Package fexipro is a fast and exact top-k inner-product retrieval
// library for matrix-factorization recommender systems, implementing the
// FEXIPRO framework of Li, Chan, Yiu & Mamoulis (SIGMOD 2017) together
// with every baseline evaluated in the paper.
//
// Given an item factor matrix P (n items × d latent dimensions) and a
// user vector q, the library returns the k items with the largest inner
// products qᵀp — exactly, typically an order of magnitude faster than a
// full scan. FEXIPRO combines a sorted sequential scan with three
// losslessly invertible transformations:
//
//   - an SVD rotation that concentrates each query's energy in the
//     leading dimensions, making partial-product pruning effective,
//   - a scaled integer approximation whose integer-arithmetic upper
//     bound is checked before any floating-point work, and
//   - a reduction to nonnegative coordinates that makes partial inner
//     products monotone, yielding a second, tighter pruning bound.
//
// # Quick start
//
//	items := fexipro.MatrixFromRows(itemFactors) // n×d, rows are items
//	s, err := fexipro.New(items, fexipro.Options{})
//	if err != nil { ... }
//	top := s.Search(userVector, 10)
//	for _, r := range top {
//	    fmt.Println(r.ID, r.Score)
//	}
//
// Baselines (Naive, SS-L, BallTree, FastMKS, LEMP, PCATree, MiniBatch)
// are available through the same Searcher interface for benchmarking and
// verification; see the New* constructors.
package fexipro

import (
	"context"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// ErrDeadline is returned by SearchContext when a query is cancelled —
// deadline expiry or explicit cancel — before the scan completed.
// Results returned alongside it are the best-so-far partial top-k:
// every score is a true inner product, but items the scan had not
// reached may be missing, so the set must be treated as inexact. Only a
// (results, nil) return is guaranteed to be the exact top-k. Match with
// errors.Is.
var ErrDeadline = search.ErrDeadline

// Matrix is a dense row-major matrix of factor vectors: row i is the
// d-dimensional vector of item (or user) i.
type Matrix struct {
	m *vec.Matrix
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{m: vec.NewMatrix(rows, cols)}
}

// MatrixFromRows copies a slice of equal-length rows into a Matrix.
// It panics if the rows are ragged.
func MatrixFromRows(rows [][]float64) *Matrix {
	return &Matrix{m: vec.FromRows(rows)}
}

// Rows returns the number of vectors.
func (m *Matrix) Rows() int { return m.m.Rows }

// Cols returns the dimensionality d.
func (m *Matrix) Cols() int { return m.m.Cols }

// Row returns row i as a slice aliasing the matrix storage; mutating it
// mutates the matrix. Do not mutate a matrix after indexing it.
func (m *Matrix) Row(i int) []float64 { return m.m.Row(i) }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.m.At(i, j) }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.m.Set(i, j, v) }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix { return &Matrix{m: m.m.Clone()} }

// Result is one retrieved item.
type Result struct {
	// ID is the row index of the item in the indexed matrix.
	ID int
	// Score is the inner product qᵀp (exact for all methods but PCATree,
	// whose results are approximate by design).
	Score float64
}

// Stats reports the work performed by the most recent Search call of a
// Searcher, mirroring the instrumentation behind the paper's Tables 3/7.
// The five per-stage pruning counters are reported individually (one per
// bound in the cascade) alongside the collapsed Pruned total.
type Stats struct {
	// Scanned is the number of candidates examined before termination.
	Scanned int
	// PrunedByLength counts items skipped via the Cauchy–Schwarz length
	// bound, including everything cut off by early termination of the
	// sorted scan.
	PrunedByLength int
	// PrunedByIntHead and PrunedByIntFull count prunes by the partial and
	// full integer upper bounds.
	PrunedByIntHead int
	PrunedByIntFull int
	// PrunedByIncremental counts prunes by the float incremental bound
	// after the exact head dimensions.
	PrunedByIncremental int
	// PrunedByMonotone counts prunes by the monotonicity-reduction bound.
	PrunedByMonotone int
	// Pruned is the sum of the five per-stage counters: candidates
	// eliminated by any bound without computing their full inner product.
	Pruned int
	// FullProducts is the number of entire qᵀp computations.
	FullProducts int
	// NodesVisited counts tree nodes expanded (tree methods only).
	NodesVisited int
}

// TotalPruned returns the sum of the five per-stage pruning counters:
// every candidate eliminated by any bound without computing its full
// inner product. It always equals the Pruned field on Stats produced by
// this package; the method is the collapse point callers should use
// when deriving the total from individually adjusted stage counters.
func (s Stats) TotalPruned() int {
	return s.PrunedByLength + s.PrunedByIntHead + s.PrunedByIntFull +
		s.PrunedByIncremental + s.PrunedByMonotone
}

// Searcher is the common interface of every retrieval method.
type Searcher interface {
	// Search returns the top-k inner products of q against the indexed
	// items, sorted by descending score.
	Search(q []float64, k int) []Result
	// SearchContext behaves like Search but honours ctx: on deadline
	// expiry or cancellation it promptly returns the best-so-far partial
	// results together with an error satisfying
	// errors.Is(err, ErrDeadline). A nil error flags the results as
	// exact.
	SearchContext(ctx context.Context, q []float64, k int) ([]Result, error)
	// LastStats reports counters for the most recent Search call.
	LastStats() Stats
}

// wrap adapts an internal searcher to the public interface, keeping the
// stats of its most recent call for LastStats.
type wrap struct {
	s    search.Searcher
	last search.Stats
}

// Search implements Searcher.
func (w *wrap) Search(q []float64, k int) []Result {
	res, _ := w.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements Searcher: on cancellation it returns the
// best-so-far partial top-k and an ErrDeadline-wrapping error.
func (w *wrap) SearchContext(ctx context.Context, q []float64, k int) ([]Result, error) {
	res, st, err := w.s.SearchContext(ctx, q, k)
	w.last = st
	return convertResults(res), err
}

// LastStats implements Searcher.
func (w *wrap) LastStats() Stats { return convertStats(w.last) }

func convertResults(in []topk.Result) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result{ID: r.ID, Score: r.Score}
	}
	return out
}

func convertStats(st search.Stats) Stats {
	return Stats{
		Scanned:             st.Scanned,
		PrunedByLength:      st.PrunedByLength,
		PrunedByIntHead:     st.PrunedByIntHead,
		PrunedByIntFull:     st.PrunedByIntFull,
		PrunedByIncremental: st.PrunedByIncremental,
		PrunedByMonotone:    st.PrunedByMonotone,
		Pruned:              st.TotalPruned(),
		FullProducts:        st.FullProducts,
		NodesVisited:        st.NodesVisited,
	}
}
