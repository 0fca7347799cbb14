package lemp_test

import (
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/lemp"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// Small buckets so even the harness's small instances span many
// buckets and every shard count in the grid gets real work.
func buildSharded(items *vec.Matrix, strategy lemp.Strategy, shards int) *engine.Engine {
	idx := lemp.New(items, lemp.Options{BucketSize: 16, Strategy: strategy})
	return engine.New(lemp.NewKernel(idx, shards), 2)
}

func TestShardedLEMPBitExact(t *testing.T) {
	for _, st := range []struct {
		name     string
		strategy lemp.Strategy
	}{{"LI", lemp.StrategyLI}, {"Coord", lemp.StrategyCoord}} {
		st := st
		t.Run(st.name, func(t *testing.T) {
			searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
				return buildSharded(items, st.strategy, shards)
			}, "lemp-"+st.name)
		})
	}
}

func TestShardedLEMPCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
		return buildSharded(items, lemp.StrategyLI, shards)
	}, "lemp")
}
