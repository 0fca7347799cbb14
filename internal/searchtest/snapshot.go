package searchtest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// SnapshotShardCounts is the shard grid the persistence round-trip
// harness runs: the single-scan reference and one genuinely parallel
// count.
var SnapshotShardCounts = []int{1, 4}

// SnapshotCodec describes how a searcher package builds, persists, and
// serves one of its index types, for CheckSnapshotRoundTrip. T is the
// package's index type (core.Index, lemp.Index, a tree, ...).
type SnapshotCodec[T any] struct {
	// Build constructs the index from an item matrix. Fail the test
	// inside the closure on construction errors.
	Build func(items *vec.Matrix) T
	// Save serializes the index as a fexsnap container.
	Save func(ix T, w io.Writer) error
	// Load deserializes an index written by Save.
	Load func(r io.Reader) (T, error)
	// Searcher wraps the index in the package's sharded searcher. Called
	// with each count in SnapshotShardCounts, for both the original and
	// the loaded index.
	Searcher func(ix T, shards int) search.Searcher
	// Approx marks approximate searchers (PCA-Tree): the cancellation
	// suite skips the Naive baseline, and the stage counters are held
	// only to the conservation law an incomplete descent keeps.
	Approx bool
}

// CheckSnapshotRoundTrip is the shared persistence harness (DESIGN.md
// §15): for a grid of instances it saves the built index, loads it
// back, and requires the loaded index to be indistinguishable from the
// original — byte-identical on re-save, and bit-identical through the
// sharded searcher (same IDs, same scores bitwise, same tie order) for
// every shard count in SnapshotShardCounts. The stage counters must be
// identical on the sequential S=1 path; at S>1 they depend on the
// worker schedule, so both runs are held to the conservation laws
// instead (CheckConservation). It then runs the full cancellation
// property suite against a loaded searcher, so persistence cannot
// change partial-result semantics either.
func CheckSnapshotRoundTrip[T any](t *testing.T, c SnapshotCodec[T], label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(20260808))
	cases := []struct{ n, d, k int }{
		{1, 3, 1}, // fewer rows than shards
		{60, 8, 5},
		{200, 16, 10},
		{64, 12, 100}, // k > n
	}
	for _, cse := range cases {
		items, _ := RandomInstance(rng, cse.n, cse.d)
		checkSnapshotInstance(t, c, items, cse.k, rng,
			fmt.Sprintf("%s/n=%d,d=%d,k=%d", label, cse.n, cse.d, cse.k))
	}

	// Tie-heavy instance: duplicated rows force exact score ties, so any
	// ordering drift introduced by the save/load path would surface.
	dup := vec.NewMatrix(90, 6)
	for i := 0; i < dup.Rows; i++ {
		src := dup.Row(i)
		r := rand.New(rand.NewSource(int64(i % 9)))
		for j := range src {
			src[j] = r.NormFloat64()
		}
	}
	checkSnapshotInstance(t, c, dup, 25, rng, label+"/duplicates")

	// Cancellation semantics survive the round trip: the loaded searcher
	// must satisfy the same partial-result contract as a fresh one.
	for _, shards := range SnapshotShardCounts {
		shards := shards
		build := func(items *vec.Matrix) search.Searcher {
			return c.Searcher(saveLoad(t, c, c.Build(items), label), shards)
		}
		lbl := fmt.Sprintf("%s/loaded/S=%d", label, shards)
		if c.Approx {
			CheckCancellationApprox(t, build, lbl)
		} else {
			CheckCancellation(t, build, lbl)
		}
	}
}

// saveLoad round-trips an index through the codec, asserting the save
// is deterministic and the loaded index re-saves byte-identically.
func saveLoad[T any](t *testing.T, c SnapshotCodec[T], ix T, label string) T {
	t.Helper()
	var buf, again bytes.Buffer
	if err := c.Save(ix, &buf); err != nil {
		t.Fatalf("%s: save: %v", label, err)
	}
	if err := c.Save(ix, &again); err != nil {
		t.Fatalf("%s: second save: %v", label, err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("%s: saving the same index twice produced different bytes", label)
	}
	loaded, err := c.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: load: %v", label, err)
	}
	var resaved bytes.Buffer
	if err := c.Save(loaded, &resaved); err != nil {
		t.Fatalf("%s: re-save of loaded index: %v", label, err)
	}
	if !bytes.Equal(buf.Bytes(), resaved.Bytes()) {
		t.Fatalf("%s: loaded index re-saves to different bytes (%d vs %d): snapshot is lossy",
			label, buf.Len(), resaved.Len())
	}
	return loaded
}

func checkSnapshotInstance[T any](t *testing.T, c SnapshotCodec[T], items *vec.Matrix, k int, rng *rand.Rand, label string) {
	t.Helper()
	orig := c.Build(items)
	loaded := saveLoad(t, c, orig, label)

	for _, shards := range SnapshotShardCounts {
		fresh := c.Searcher(orig, shards)
		warm := c.Searcher(loaded, shards)
		for trial := 0; trial < 4; trial++ {
			q := make([]float64, items.Cols)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			want, wantSt, err := fresh.SearchContext(context.Background(), q, k)
			if err != nil {
				t.Fatalf("%s: S=%d original search: %v", label, shards, err)
			}
			got, gotSt, err := warm.SearchContext(context.Background(), q, k)
			if err != nil {
				t.Fatalf("%s: S=%d loaded search: %v", label, shards, err)
			}
			topk.SortResults(want)
			topk.SortResults(got)
			if len(got) != len(want) {
				t.Fatalf("%s: S=%d query %d: loaded returned %d results, original %d",
					label, shards, trial, len(got), len(want))
			}
			for i := range want {
				// Struct equality: IDs AND bitwise scores AND tie order.
				if got[i] != want[i] {
					t.Fatalf("%s: S=%d query %d rank %d: loaded %+v, original %+v",
						label, shards, trial, i, got[i], want[i])
				}
			}
			// The loaded index must also walk the same pruning path, not
			// just reach the same answer: stage counters are part of the
			// persisted contract (they feed /metrics and the perf gates).
			// Only the sequential path makes them a pure function of
			// index and query; parallel shards share a SharedThreshold,
			// so how much each prunes depends on when its siblings
			// publish.
			if shards == 1 && wantSt != gotSt {
				t.Fatalf("%s: S=1 query %d: stage counters diverged after load:\noriginal %+v\n  loaded %+v",
					label, trial, wantSt, gotSt)
			}
			for _, st := range []search.Stats{wantSt, gotSt} {
				if err := CheckConservation(st, items.Rows, c.Approx); err != nil {
					t.Fatalf("%s: S=%d query %d: %v", label, shards, trial, err)
				}
			}
		}
	}
}

// CheckConservation verifies the stage-counter conservation laws of one
// completed query over n items. They hold at every worker schedule:
//
//	Scanned + PrunedByLength = n
//	Scanned = PrunedByIntHead + PrunedByIntFull + PrunedByIncremental
//	          + PrunedByMonotone + FullProducts
//
// Every item is either reached or cut off by the length bound, and
// every reached item is either pruned by exactly one later bound or
// fully computed. approx checks only the second law: an approximate
// descent (PCATree) neither reaches nor prunes the items it skips.
func CheckConservation(st search.Stats, n int, approx bool) error {
	if !approx && st.Scanned+st.PrunedByLength != n {
		return fmt.Errorf("Scanned %d + PrunedByLength %d != n %d: %+v", st.Scanned, st.PrunedByLength, n, st)
	}
	later := st.PrunedByIntHead + st.PrunedByIntFull + st.PrunedByIncremental + st.PrunedByMonotone + st.FullProducts
	if st.Scanned != later {
		return fmt.Errorf("Scanned %d != later prunes + FullProducts %d: %+v", st.Scanned, later, st)
	}
	return nil
}
