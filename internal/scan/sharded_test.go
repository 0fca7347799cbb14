package scan_test

import (
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestShardedNaiveBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
		return engine.New(scan.NewNaiveKernel(scan.NewNaive(items), shards), 2)
	}, "naive")
}

func TestShardedSSBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
		return engine.New(scan.NewSSKernel(scan.NewSS(items, 0), shards), 2)
	}, "ss")
}

func TestShardedSSLBitExact(t *testing.T) {
	searchtest.CheckSharded(t, func(items *vec.Matrix, shards int) search.Searcher {
		return engine.New(scan.NewSSLKernel(scan.NewSSL(items, scan.SSLOptions{}), shards), 2)
	}, "ssl")
}

func TestShardedScanCancellation(t *testing.T) {
	t.Run("naive", func(t *testing.T) {
		searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
			return engine.New(scan.NewNaiveKernel(scan.NewNaive(items), shards), 2)
		}, "naive")
	})
	t.Run("ss", func(t *testing.T) {
		searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
			return engine.New(scan.NewSSKernel(scan.NewSS(items, 0), shards), 2)
		}, "ss")
	})
	t.Run("ssl", func(t *testing.T) {
		searchtest.CheckShardedCancellation(t, func(items *vec.Matrix, shards int) search.Searcher {
			return engine.New(scan.NewSSLKernel(scan.NewSSL(items, scan.SSLOptions{}), shards), 2)
		}, "ssl")
	})
}
