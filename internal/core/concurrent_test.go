package core_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/searchtest"
	"fexipro/internal/topk"
)

// concurrentQueries runs every query from several goroutines at once
// through fn and requires each answer to equal want[i], the sequential
// answer to query i. Searches keep no per-query state in the searcher,
// so under -race this is the proof that one shared instance serves
// concurrent readers.
func concurrentQueries(t *testing.T, label string, queries [][]float64, want [][]topk.Result, fn func(q []float64) []topk.Result) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range queries {
				i := (j + g) % len(queries) // stagger so goroutines overlap on different queries
				got := fn(queries[i])
				if len(got) != len(want[i]) {
					t.Errorf("%s: query %d: %d results, sequential answer has %d", label, i, len(got), len(want[i]))
					return
				}
				for r := range got {
					if got[r] != want[i][r] {
						t.Errorf("%s: query %d rank %d: %+v, sequential answer %+v", label, i, r, got[r], want[i][r])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func randomQueries(rng *rand.Rand, n, d int) [][]float64 {
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = make([]float64, d)
		for j := range qs[i] {
			qs[i][j] = rng.NormFloat64()
		}
	}
	return qs
}

// TestConcurrentSearchesShareEngine: one sharded engine (S=4, two
// workers) answers concurrent queries, each equal to its sequential
// answer.
func TestConcurrentSearchesShareEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	items, _ := searchtest.RandomInstance(rng, 600, 12)
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(core.NewSharded(idx, 4), 2)
	queries := randomQueries(rng, 12, 12)
	want := make([][]topk.Result, len(queries))
	for i, q := range queries {
		want[i] = eng.Search(q, 10)
	}
	concurrentQueries(t, "engine", queries, want, func(q []float64) []topk.Result {
		res, st, err := eng.SearchContext(context.Background(), q, 10)
		if err != nil {
			t.Error(err)
		}
		if err := searchtest.CheckConservation(st, items.Rows, false); err != nil {
			t.Error(err)
		}
		return res
	})
}

// TestConcurrentSearchesShareDynamicIndex: one sharded dynamic index
// (after mutations left delta buffers and tombstones behind) answers
// concurrent top-k and above-t queries, each equal to its sequential
// answer.
func TestConcurrentSearchesShareDynamicIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	items, _ := searchtest.RandomInstance(rng, 400, 10)
	di, err := core.NewDynamicIndexSharded(items, core.Options{SVD: true, Int: true, Reduction: true}, 0, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		row := make([]float64, 10)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if _, err := di.Add(row); err != nil {
			t.Fatal(err)
		}
		if err := di.Delete(3 * i); err != nil {
			t.Fatal(err)
		}
	}
	queries := randomQueries(rng, 12, 10)
	want := make([][]topk.Result, len(queries))
	wantAbove := make([][]topk.Result, len(queries))
	for i, q := range queries {
		want[i] = di.Search(q, 10)
		wantAbove[i] = di.SearchAbove(q, 2)
	}
	concurrentQueries(t, "dynamic/top-k", queries, want, func(q []float64) []topk.Result {
		res, _, err := di.SearchContext(context.Background(), q, 10)
		if err != nil {
			t.Error(err)
		}
		return res
	})
	concurrentQueries(t, "dynamic/above", queries, wantAbove, func(q []float64) []topk.Result {
		res, _, err := di.SearchAboveContext(context.Background(), q, 2)
		if err != nil {
			t.Error(err)
		}
		return res
	})
}
