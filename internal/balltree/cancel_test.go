package balltree_test

import (
	"testing"

	"fexipro/internal/balltree"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// The ball tree polls per visited node rather than per scanned item; the
// shared suite's invariants (never exact when cut short, true partial
// scores, unfired-hook determinism) are index-agnostic.
func TestBallTreeCancellation(t *testing.T) {
	searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
		return balltree.New(items, 16)
	}, "BallTree")
}
