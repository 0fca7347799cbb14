package covertree_test

import (
	"testing"

	"fexipro/internal/covertree"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestCoverTreeCancellation(t *testing.T) {
	searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
		return covertree.New(items, 16)
	}, "CoverTree")
}
