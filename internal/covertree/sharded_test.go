package covertree_test

import (
	"testing"

	"fexipro/internal/covertree"
	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// Small leaves so even the harness's small instances produce real
// multi-level trees in every shard.
func buildSharded(items *vec.Matrix, shards int) *engine.Engine {
	return engine.New(covertree.NewKernel(items, 4, shards), 2)
}

func TestShardedCoverTreeBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
		return buildSharded(items, shards)
	}, "covertree")
}

func TestShardedCoverTreeCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
		return buildSharded(items, shards)
	}, "covertree")
}
