package lemp_test

import (
	"testing"

	"fexipro/internal/lemp"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestLEMPCancellationLI(t *testing.T) {
	searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
		return lemp.New(items, lemp.Options{Strategy: lemp.StrategyLI})
	}, "LEMP-LI")
}

func TestLEMPCancellationCoord(t *testing.T) {
	searchtest.CheckCancellation(t, func(items *vec.Matrix) search.Searcher {
		return lemp.New(items, lemp.Options{Strategy: lemp.StrategyCoord})
	}, "LEMP-COORD")
}
