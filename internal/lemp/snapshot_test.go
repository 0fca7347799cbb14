package lemp_test

import (
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/lemp"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestSnapshotRoundTrip: a saved-and-loaded LEMP index must serve
// queries bit-identically to the one that was built, for both bucket
// strategies (the coordinate strategy persists per-bucket bounds the
// incremental strategy does not).
func TestSnapshotRoundTrip(t *testing.T) {
	for _, st := range []struct {
		name     string
		strategy lemp.Strategy
	}{{"LI", lemp.StrategyLI}, {"Coord", lemp.StrategyCoord}} {
		st := st
		t.Run(st.name, func(t *testing.T) {
			searchtest.CheckSnapshotRoundTrip(t, searchtest.SnapshotCodec[*lemp.Index]{
				Build: func(items *vec.Matrix) *lemp.Index {
					return lemp.New(items, lemp.Options{BucketSize: 16, Strategy: st.strategy})
				},
				Save: (*lemp.Index).Save,
				Load: lemp.Load,
				Searcher: func(ix *lemp.Index, shards int) search.Searcher {
					return engine.New(lemp.NewKernel(ix, shards), 2)
				},
			}, "lemp-"+st.name)
		})
	}
}
