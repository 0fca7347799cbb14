package balltree_test

import (
	"testing"

	"fexipro/internal/balltree"
	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// Small leaves so even the harness's small instances produce real
// multi-level trees in every shard.
func buildSharded(items *vec.Matrix, shards int) *engine.Engine {
	return engine.New(balltree.NewKernel(items, 4, shards), 2)
}

func TestShardedBallTreeBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
		return buildSharded(items, shards)
	}, "balltree")
}

func TestShardedBallTreeCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
		return buildSharded(items, shards)
	}, "balltree")
}
