package balltree_test

import (
	"testing"

	"fexipro/internal/balltree"
	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestSnapshotRoundTrip: a saved-and-loaded ball tree must serve
// queries bit-identically to the one that was built. S=1 serves the
// loaded tree directly (no rebuild); multi-shard kernels re-partition
// the persisted item matrix, which is deterministic from the items.
func TestSnapshotRoundTrip(t *testing.T) {
	searchtest.CheckSnapshotRoundTrip(t, searchtest.SnapshotCodec[*balltree.Tree]{
		Build: func(items *vec.Matrix) *balltree.Tree { return balltree.New(items, 4) },
		Save:  (*balltree.Tree).Save,
		Load:  balltree.Load,
		Searcher: func(tr *balltree.Tree, shards int) search.Searcher {
			if shards == 1 {
				return engine.New(balltree.NewKernelFromTree(tr), 2)
			}
			return engine.New(balltree.NewKernel(tr.Items(), tr.LeafSize(), shards), 2)
		},
	}, "balltree")
}
