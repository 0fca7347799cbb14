package covertree_test

import (
	"context"
	"math/rand"
	"testing"

	"fexipro/internal/covertree"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestCoverTreeExact(t *testing.T) {
	searchtest.CheckSearcher(t, func(items *vec.Matrix) search.Searcher {
		return covertree.New(items, 0)
	}, "covertree")
	searchtest.CheckSearcherEdgeCases(t, func(items *vec.Matrix) search.Searcher {
		return covertree.New(items, 0)
	}, "covertree")
}

func TestCoverTreeExactVariousLeafSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	items, _ := searchtest.RandomInstance(rng, 400, 10)
	for _, leaf := range []int{1, 10, 50} {
		tree := covertree.New(items, leaf)
		if tree.Size() != 400 {
			t.Fatalf("leaf=%d: Size = %d, want 400", leaf, tree.Size())
		}
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 10)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 5, tree.Search(q, 5), "covertree/leaf")
		}
	}
}

func TestCoverTreeDuplicates(t *testing.T) {
	row := []float64{-1, 0.5}
	items := vec.FromRows([][]float64{row, row, row, row, row, row})
	tree := covertree.New(items, 2)
	got := tree.Search([]float64{2, 2}, 4)
	if len(got) != 4 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if r.Score != -1 {
			t.Fatalf("score %v, want -1", r.Score)
		}
	}
}

func TestCoverTreePrunesInLowDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	items, q := searchtest.RandomInstance(rng, 5000, 3)
	tree := covertree.New(items, 0)
	_, st, _ := tree.SearchContext(context.Background(), q, 1)
	if st.FullProducts >= 5000 {
		t.Errorf("no pruning at d=3: %d full products", st.FullProducts)
	}
}

func TestCoverTreeEmpty(t *testing.T) {
	tree := covertree.New(vec.NewMatrix(0, 4), 0)
	if got := tree.Search([]float64{1, 2, 3, 4}, 3); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	if tree.Size() != 0 {
		t.Fatalf("Size = %d", tree.Size())
	}
}

func TestCoverTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	items, _ := searchtest.RandomInstance(rng, 600, 7)
	tree := covertree.New(items, 8)
	total := tree.CheckInvariants(t.Errorf)
	if total != 600 {
		t.Fatalf("leaves cover %d items, want 600", total)
	}
}
