package main

import (
	"fmt"
	"math"
	"sort"

	"fexipro"
	"fexipro/internal/scan"
	"fexipro/internal/vec"
)

// relTol is the score tolerance of the correctness gate: two scores
// agree when they differ by at most relTol·max(|reference|, 1).
const relTol = 1e-9

// hit is one retrieved item, as the gate compares it.
type hit struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// reference answers exact top-k queries by brute force (scan.Naive)
// over a catalog model: row r of items is the item with catalog ID
// ids[r]. It is the oracle every sampled answer is checked against.
type reference struct {
	items *vec.Matrix
	ids   []int
	row   map[int]int
	naive *scan.Naive
}

// newReference builds the oracle over items whose catalog IDs are ids
// (nil: row index = ID).
func newReference(items *vec.Matrix, ids []int) *reference {
	if ids == nil {
		ids = make([]int, items.Rows)
		for i := range ids {
			ids[i] = i
		}
	}
	row := make(map[int]int, len(ids))
	for r, id := range ids {
		row[id] = r
	}
	return &reference{items: items, ids: ids, row: row, naive: scan.NewNaive(items)}
}

// referenceFromModel builds the oracle over a live-catalog model (ID →
// vector), rows in ascending ID order so Naive's ID tie-break matches
// the served index's.
func referenceFromModel(model map[int][]float64, d int) *reference {
	ids := make([]int, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	m := vec.NewMatrix(len(ids), d)
	for r, id := range ids {
		copy(m.Row(r), model[id])
	}
	return newReference(m, ids)
}

// topK is the exact answer.
func (ref *reference) topK(q []float64, k int) []hit {
	res := ref.naive.Search(q, k)
	out := make([]hit, len(res))
	for i, r := range res {
		out[i] = hit{ID: ref.ids[r.ID], Score: r.Score}
	}
	return out
}

// score is the exact inner product of q with catalog item id; ok is
// false when id is not in the catalog.
func (ref *reference) score(q []float64, id int) (float64, bool) {
	r, ok := ref.row[id]
	if !ok {
		return 0, false
	}
	return vec.Dot(q, ref.items.Row(r)), true
}

func close9(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(b), 1)
}

// check compares got against the exact answer want for query q. The
// answer must have the same length, agree position by position in
// score, report each item's true score, hold no duplicates, and contain
// the same IDs — except that an item whose true score ties the k-th
// score within relTol may stand in for another such item.
func (ref *reference) check(q []float64, want, got []hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		return nil
	}
	kth := want[len(want)-1].Score
	seen := make(map[int]bool, len(got))
	for i, g := range got {
		if !close9(g.Score, want[i].Score) {
			return fmt.Errorf("rank %d: score %.17g, want %.17g", i, g.Score, want[i].Score)
		}
		s, ok := ref.score(q, g.ID)
		if !ok {
			return fmt.Errorf("rank %d: id %d is not in the catalog", i, g.ID)
		}
		if !close9(g.Score, s) {
			return fmt.Errorf("rank %d: id %d reported %.17g, true score %.17g", i, g.ID, g.Score, s)
		}
		if seen[g.ID] {
			return fmt.Errorf("rank %d: id %d returned twice", i, g.ID)
		}
		seen[g.ID] = true
	}
	for _, w := range want {
		if !seen[w.ID] && !close9(w.Score, kth) {
			return fmt.Errorf("id %d (score %.17g) missing from the answer", w.ID, w.Score)
		}
	}
	inWant := make(map[int]bool, len(want))
	for _, w := range want {
		inWant[w.ID] = true
	}
	for _, g := range got {
		if !inWant[g.ID] && !close9(g.Score, kth) {
			return fmt.Errorf("id %d (score %.17g) is not in the exact top-%d", g.ID, g.Score, len(want))
		}
	}
	return nil
}

// conserve checks the stage-counter conservation laws of one
// sequential query over n items: every item is either scanned or cut
// by the length bound, and every scanned item is either pruned by one
// of the four per-item bounds or fully multiplied.
func conserve(st fexipro.Stats, n int) error {
	if st.Scanned+st.PrunedByLength != n {
		return fmt.Errorf("scanned %d + prunedByLength %d != n %d", st.Scanned, st.PrunedByLength, n)
	}
	perItem := st.PrunedByIntHead + st.PrunedByIntFull + st.PrunedByIncremental + st.PrunedByMonotone
	if st.Scanned != perItem+st.FullProducts {
		return fmt.Errorf("scanned %d != per-item prunes %d + full products %d", st.Scanned, perItem, st.FullProducts)
	}
	return nil
}
