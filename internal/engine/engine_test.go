package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// dotKernel is a minimal exact kernel over a raw matrix: each shard
// naively dots its contiguous row range. It exercises the engine's
// fan-out, merge, shared-threshold, stats-aggregation, and cancellation
// plumbing without any FEXIPRO transform machinery.
type dotKernel struct {
	items *vec.Matrix
	part  Partition
}

func newDotKernel(items *vec.Matrix, shards int) *dotKernel {
	return &dotKernel{items: items, part: NewPartition(items.Rows, shards)}
}

func (dk *dotKernel) Shards() int { return dk.part.Shards() }

func (dk *dotKernel) Prepare(q []float64) any {
	if len(q) != dk.items.Cols {
		panic("dotKernel: dimension mismatch")
	}
	return q
}

func (dk *dotKernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	q := pq.([]float64)
	lo, hi := dk.part.Range(shard)
	var st search.Stats
	done := ctx.Done()
	for i := lo; i < hi; i++ {
		local := i - lo
		if hook != nil || (done != nil && local&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, local); err != nil {
				st.Scanned = local
				st.FullProducts = local
				return st, err
			}
		}
		v := vec.Dot(q, dk.items.Row(i))
		t := shared.Floor(c.Threshold())
		if v < t {
			st.PrunedByLength++ // stand-in counter for the toy kernel
			continue
		}
		if c.Push(i, v) && c.Len() == c.K() {
			shared.Publish(c.Threshold())
		}
	}
	st.Scanned = hi - lo
	st.FullProducts = hi - lo
	return st, nil
}

func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestEngineMatchesSingleShard(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := randMatrix(rng, 500, 8)
	q := make([]float64, 8)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	base := New(newDotKernel(items, 1), 1)
	want, _, err := base.SearchContext(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("S=1: %v", err)
	}
	for _, shards := range []int{2, 3, 7} {
		for _, workers := range []int{1, 2, 4} {
			e := New(newDotKernel(items, shards), workers)
			got, _, err := e.SearchContext(context.Background(), q, 10)
			if err != nil {
				t.Fatalf("S=%d W=%d: %v", shards, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("S=%d W=%d: %d results, want %d", shards, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("S=%d W=%d: result %d = %+v, want %+v", shards, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEngineStatsAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randMatrix(rng, 300, 4)
	q := items.Row(0)
	e := New(newDotKernel(items, 5), 2)
	_, st, err := e.SearchContext(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 300 {
		t.Fatalf("aggregated Scanned = %d, want 300", st.Scanned)
	}
	if st.FullProducts != 300 {
		t.Fatalf("aggregated FullProducts = %d, want 300", st.FullProducts)
	}
}

func TestEngineObserver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randMatrix(rng, 120, 4)
	e := New(newDotKernel(items, 4), 1) // sequential: observer calls are ordered
	seen := make([]bool, 4)
	totalScanned := 0
	e.SetObserver(func(shard int, seconds float64, st search.Stats) {
		if shard < 0 || shard >= 4 {
			t.Errorf("observer shard %d out of range", shard)
			return
		}
		if seconds < 0 {
			t.Errorf("negative shard time %v", seconds)
		}
		seen[shard] = true
		totalScanned += st.Scanned
	})
	if _, _, err := e.SearchContext(context.Background(), items.Row(3), 5); err != nil {
		t.Fatal(err)
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("observer never saw shard %d", s)
		}
	}
	if totalScanned != 120 {
		t.Fatalf("observer saw %d scanned items, want 120", totalScanned)
	}
}

func TestEngineCancellationPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randMatrix(rng, 400, 6)
	q := make([]float64, 6)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for _, workers := range []int{1, 3} {
		e := New(newDotKernel(items, 4), workers)
		reg := faults.NewRegistry(20260806)
		ctx := faults.WithHook(context.Background(), reg.Enable(faults.SiteScan, faults.Plan{CancelAtItem: 25}))
		res, _, err := e.SearchContext(ctx, q, 10)
		if !errors.Is(err, search.ErrDeadline) {
			t.Fatalf("W=%d: err = %v, want ErrDeadline", workers, err)
		}
		// True-inner-product invariant on partials.
		for _, r := range res {
			if got := vec.Dot(q, items.Row(r.ID)); got != r.Score {
				t.Fatalf("W=%d: partial score for id %d = %v, want true dot %v", workers, r.ID, r.Score, got)
			}
		}
	}
}

func TestEnginePreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := randMatrix(rng, 100, 3)
	e := New(newDotKernel(items, 3), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := e.SearchContext(ctx, items.Row(0), 5)
	if !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if len(res) != 0 {
		t.Fatalf("pre-cancelled search returned %d results, want 0", len(res))
	}
}

func TestEngineWorkerClamp(t *testing.T) {
	items := randMatrix(rand.New(rand.NewSource(1)), 10, 2)
	if w := New(newDotKernel(items, 2), 64).Workers(); w != 2 {
		t.Fatalf("workers clamped to %d, want 2 (shard count)", w)
	}
	if w := New(newDotKernel(items, 4), 0).Workers(); w < 1 || w > 4 {
		t.Fatalf("workers defaulted to %d, want within [1,4]", w)
	}
}
