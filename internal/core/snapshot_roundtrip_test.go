package core_test

import (
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestSnapshotRoundTrip: a saved-and-loaded FEXIPRO index must be
// indistinguishable from the one that was built — byte-identical on
// re-save, bit-identical results and stage counters through the sharded
// engine, and unchanged cancellation semantics. "F" pins the minimal
// section set, "F-SIR" the full one (SVD + integer + reduction).
func TestSnapshotRoundTrip(t *testing.T) {
	for _, variant := range []string{"F", "F-SIR"} {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			opts, err := core.OptionsForVariant(variant)
			if err != nil {
				t.Fatal(err)
			}
			searchtest.CheckSnapshotRoundTrip(t, searchtest.SnapshotCodec[*core.Index]{
				Build: func(items *vec.Matrix) *core.Index {
					idx, err := core.NewIndex(items, opts)
					if err != nil {
						t.Fatalf("%s: %v", variant, err)
					}
					return idx
				},
				Save: (*core.Index).Save,
				Load: core.ReadIndex,
				Searcher: func(ix *core.Index, shards int) search.Searcher {
					return engine.New(core.NewSharded(ix, shards), 2)
				},
			}, "core/"+variant)
		})
	}
}
