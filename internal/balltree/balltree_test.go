package balltree_test

import (
	"context"
	"math/rand"
	"testing"

	"fexipro/internal/balltree"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

func TestBallTreeExact(t *testing.T) {
	searchtest.CheckSearcher(t, func(items *vec.Matrix) search.Searcher {
		return balltree.New(items, 0)
	}, "balltree")
	searchtest.CheckSearcherEdgeCases(t, func(items *vec.Matrix) search.Searcher {
		return balltree.New(items, 0)
	}, "balltree")
}

func TestBallTreeExactVariousLeafSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	items, _ := searchtest.RandomInstance(rng, 300, 12)
	for _, leaf := range []int{1, 5, 20, 100, 1000} {
		tree := balltree.New(items, leaf)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 12)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 7, tree.Search(q, 7), "balltree/leaf")
		}
	}
}

func TestBallTreePrunesInLowDimensions(t *testing.T) {
	// At low d the bound is effective: the tree must not visit everything.
	rng := rand.New(rand.NewSource(41))
	items, q := searchtest.RandomInstance(rng, 5000, 3)
	tree := balltree.New(items, 0)
	_, st, _ := tree.SearchContext(context.Background(), q, 1)
	if st.FullProducts >= 5000 {
		t.Errorf("no pruning at d=3: %d full products", st.FullProducts)
	}
	if st.PrunedByLength == 0 {
		t.Error("no subtree was ever pruned")
	}
}

func TestBallTreeAllDuplicates(t *testing.T) {
	row := []float64{1, 2, 3}
	items := vec.FromRows([][]float64{row, row, row, row, row})
	tree := balltree.New(items, 2)
	got := tree.Search([]float64{1, 1, 1}, 3)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if r.Score != 6 {
			t.Fatalf("score %v, want 6", r.Score)
		}
	}
}

func TestBallTreeDepthGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items, _ := searchtest.RandomInstance(rng, 1000, 8)
	tree := balltree.New(items, 20)
	if tree.Depth() < 3 {
		t.Fatalf("depth %d too shallow for 1000 items with leaf 20", tree.Depth())
	}
}

func TestBallTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	items, _ := searchtest.RandomInstance(rng, 700, 9)
	tree := balltree.New(items, 10)
	total := tree.CheckInvariants(t.Errorf)
	if total != 700 {
		t.Fatalf("leaves cover %d items, want 700", total)
	}
}
