// BenchmarkShardedSearch measures the sharded execution engine against
// the classic sequential retriever on the same index and workload. On a
// single-core box the engine cannot beat the sequential scan — the
// interesting numbers there are its fan-out/merge overhead and the
// shared-threshold pruning quality (fullIP/query should match the
// sequential run closely); with GOMAXPROCS > 1 the per-query latency is
// expected to drop roughly with the worker count.
//
// Run via `make bench-shard` or:
//
//	go test -bench=BenchmarkShardedSearch -benchtime=1x -run='^$' .
package fexipro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fexipro/internal/experiments"
)

func BenchmarkShardedSearch(b *testing.B) {
	const profile, method, k = "netflix", "F-SIR", 10
	ds := benchDataset(b, profile)
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name            string
		shards, workers int
	}{
		{"sequential", 1, 1},
		{"shards=2/workers=2", 2, 2},
		{"shards=8/workers=2", 8, 2},
		{fmt.Sprintf("shards=%d/workers=%d", 4*procs, procs), 4 * procs, procs},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			built, err := experiments.BuildSharded(method, ds.Items, ds.Queries, c.shards, c.workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var full int
			for i := 0; i < b.N; i++ {
				full = 0
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					_, st, _ := built.Searcher.SearchContext(context.Background(), ds.Queries.Row(qi), k)
					full += st.FullProducts
				}
			}
			b.ReportMetric(float64(full)/float64(ds.Queries.Rows), "fullIP/query")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*ds.Queries.Rows), "µs/query")
		})
	}
}
