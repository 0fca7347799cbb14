package pcatree_test

import (
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/pcatree"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestSnapshotRoundTrip: a saved-and-loaded PCA tree must serve queries
// bit-identically to the one that was built — the persisted split
// directions and thresholds, not a re-run of the per-node SVDs, decide
// the descent. PCATree is approximate, so the cancellation suite skips
// the Naive baseline (Approx) but the loaded-vs-built comparison is
// still exact.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts pcatree.Options
	}{
		{"defeatist", pcatree.Options{LeafSize: 8}},
		{"spill", pcatree.Options{LeafSize: 8, SpillFraction: 0.3}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			searchtest.CheckSnapshotRoundTrip(t, searchtest.SnapshotCodec[*pcatree.Tree]{
				Build: func(items *vec.Matrix) *pcatree.Tree { return pcatree.New(items, cfg.opts) },
				Save:  (*pcatree.Tree).Save,
				Load:  pcatree.Load,
				Searcher: func(tr *pcatree.Tree, shards int) search.Searcher {
					return engine.New(pcatree.NewKernel(tr, shards), 2)
				},
				Approx: true,
			}, "pcatree-"+cfg.name)
		})
	}
}
