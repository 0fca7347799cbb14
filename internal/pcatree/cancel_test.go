package pcatree_test

import (
	"testing"

	"fexipro/internal/pcatree"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// PCA-Tree is approximate, so the suite skips the Naive baseline
// comparison — but a cancelled descent must still never claim a clean
// completion, and partial scores must be true inner products.
func TestPCATreeCancellation(t *testing.T) {
	searchtest.CheckCancellationApprox(t, func(items *vec.Matrix) search.Searcher {
		return pcatree.New(items, pcatree.Options{LeafSize: 16})
	}, "PCATree")
}
