package pcatree_test

import (
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/pcatree"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// Small leaves so the harness's small instances produce multi-level
// trees whose leaf candidate sets straddle shard boundaries.
func buildSharded(items *vec.Matrix, opts pcatree.Options, shards int) *engine.Engine {
	return engine.New(pcatree.NewKernel(pcatree.New(items, opts), shards), 2)
}

// PCATree is approximate, but its defeatist descent is
// threshold-independent, so the sharded engine must return
// bit-identical (approximate) results for every shard count — the full
// CheckSharded harness applies because the S=1 engine is the reference.
func TestShardedPCATreeBitExact(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts pcatree.Options
	}{
		{"defeatist", pcatree.Options{LeafSize: 8}},
		{"spill", pcatree.Options{LeafSize: 8, SpillFraction: 0.3}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
				return buildSharded(items, cfg.opts, shards)
			}, "pcatree-"+cfg.name)
		})
	}
}

func TestShardedPCATreeCancellation(t *testing.T) {
	searchtest.CheckShardedCancellationApprox(t, func(items *vec.Matrix, shards int) search.Searcher {
		return buildSharded(items, pcatree.Options{LeafSize: 8}, shards)
	}, "pcatree")
}
