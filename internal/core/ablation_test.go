package core_test

import (
	"context"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/searchtest"
)

// Every ablation combination must remain EXACT — the switches trade
// speed, never correctness.
func TestAblationsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	items, _ := searchtest.RandomInstance(rng, 500, 16)
	base := core.Options{SVD: true, Int: true, Reduction: true}
	variants := map[string]core.Options{
		"global-int-scaling": func() core.Options { o := base; o.GlobalIntScaling = true; return o }(),
		"reduction-first":    func() core.Options { o := base; o.ReductionFirst = true; return o }(),
		"unsorted":           func() core.Options { o := base; o.Unsorted = true; return o }(),
		"all-ablations": func() core.Options {
			o := base
			o.GlobalIntScaling, o.ReductionFirst, o.Unsorted = true, true, true
			return o
		}(),
	}
	for name, opts := range variants {
		idx, err := core.NewIndex(items, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := core.NewRetriever(idx)
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, 16)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 5, r.Search(q, 5), name)
		}
	}
}

// Sorting must dominate the unsorted scan in length-pruning efficiency:
// the unsorted variant cannot early-terminate, so it scans at least as
// many candidates.
func TestUnsortedScansMore(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	items, q := searchtest.RandomInstance(rng, 3000, 12)
	base := core.Options{SVD: true, Int: true, Reduction: true}

	sorted, err := core.NewIndex(items, base)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Unsorted = true
	unsorted, err := core.NewIndex(items, o)
	if err != nil {
		t.Fatal(err)
	}

	rs := core.NewRetriever(sorted)
	ru := core.NewRetriever(unsorted)
	_, ss, _ := rs.SearchContext(context.Background(), q, 1)
	_, su, _ := ru.SearchContext(context.Background(), q, 1)
	if su.Scanned < ss.Scanned {
		t.Fatalf("unsorted scanned %d < sorted %d", su.Scanned, ss.Scanned)
	}
}

// Per-part scaling (Eq. 7) must not be weaker than global scaling
// (Eq. 4) at pruning, aggregated over a query batch.
func TestPerPartScalingPrunesAtLeastAsWell(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	items, _ := searchtest.RandomInstance(rng, 4000, 24)
	base := core.Options{SVD: true, Int: true}
	perPart, err := core.NewIndex(items, base)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.GlobalIntScaling = true
	global, err := core.NewIndex(items, o)
	if err != nil {
		t.Fatal(err)
	}
	rp, rg := core.NewRetriever(perPart), core.NewRetriever(global)
	var fullPer, fullGlob int
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, 24)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		_, sp, _ := rp.SearchContext(context.Background(), q, 1)
		_, sg, _ := rg.SearchContext(context.Background(), q, 1)
		fullPer += sp.FullProducts
		fullGlob += sg.FullProducts
	}
	if fullPer > fullGlob {
		t.Fatalf("per-part scaling computed MORE full products (%d) than global (%d)", fullPer, fullGlob)
	}
}

// CompactInts (int16 floors) must be exact and produce identical pruning
// decisions to the int32 representation.
func TestCompactIntsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	items, _ := searchtest.RandomInstance(rng, 800, 20)
	wide, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true, CompactInts: true})
	if err != nil {
		t.Fatal(err)
	}
	rw, rc := core.NewRetriever(wide), core.NewRetriever(compact)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 20)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		got, sc, _ := rc.SearchContext(context.Background(), q, 5)
		searchtest.CheckTopK(t, items, q, 5, got, "compact-ints")
		_, sw, _ := rw.SearchContext(context.Background(), q, 5)
		if sw != sc {
			t.Fatalf("pruning decisions diverged: %+v vs %+v", sw, sc)
		}
	}
}

// E too large for int16 must silently fall back to int32 and stay exact.
func TestCompactIntsOverflowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	items, _ := searchtest.RandomInstance(rng, 200, 10)
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, CompactInts: true, E: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRetriever(idx)
	q := make([]float64, 10)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	searchtest.CheckTopK(t, items, q, 3, r.Search(q, 3), "compact-fallback")
}
