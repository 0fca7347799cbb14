package covertree_test

import (
	"testing"

	"fexipro/internal/covertree"
	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestSnapshotRoundTrip: a saved-and-loaded cover tree must serve
// queries bit-identically to the one that was built. S=1 serves the
// loaded tree directly (no rebuild); multi-shard kernels re-partition
// the persisted item matrix, which is deterministic from the items.
func TestSnapshotRoundTrip(t *testing.T) {
	searchtest.CheckSnapshotRoundTrip(t, searchtest.SnapshotCodec[*covertree.Tree]{
		Build: func(items *vec.Matrix) *covertree.Tree { return covertree.New(items, 4) },
		Save:  (*covertree.Tree).Save,
		Load:  covertree.Load,
		Searcher: func(tr *covertree.Tree, shards int) search.Searcher {
			if shards == 1 {
				return engine.New(covertree.NewKernelFromTree(tr), 2)
			}
			return engine.New(covertree.NewKernel(tr.Items(), tr.LeafSize(), shards), 2)
		},
	}, "covertree")
}
