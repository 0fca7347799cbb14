package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fexipro"
	"fexipro/internal/vec"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	p := percentile(xs, 0.99)
	if p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.supported() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, beyond 10, supported", p)
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
	if p := percentile(xs[:999], 0.99); p.Beyond != 9 || p.supported() {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and unsupported", p)
	}
	if p := percentile(xs, 0.5); p.Value != 500 || p.Beyond != 500 {
		t.Fatalf("p50 of 1..1000 = %+v, want value 500 with 500 beyond", p)
	}
	if p := percentile([]float64{7}, 0.99); p.Value != 7 || p.N != 1 || p.Beyond != 0 {
		t.Fatalf("p99 of one sample = %+v", p)
	}
	if p := percentile(nil, 0.5); p != (pct{}) {
		t.Fatalf("percentile of no samples = %+v, want zero", p)
	}
}

// smallCatalog is a seeded catalog whose rows 0 and 1 are identical and
// ten times longer than the rest, so a query along them ranks them
// first, tied.
func smallCatalog() *vec.Matrix {
	rng := rand.New(rand.NewSource(1))
	m := vec.NewMatrix(200, 8)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	for j := range m.Row(0) {
		m.Row(0)[j] *= 10
	}
	copy(m.Row(1), m.Row(0))
	return m
}

func TestGateAcceptsExactAndRejectsCorrupted(t *testing.T) {
	items := smallCatalog()
	ref := newReference(items, nil)
	rng := rand.New(rand.NewSource(2))
	q := make([]float64, items.Cols)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	want := ref.topK(q, 5)
	if err := ref.check(q, want, want); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	inTop := map[int]bool{}
	for _, h := range want {
		inTop[h.ID] = true
	}
	outsider := 0
	for inTop[outsider] {
		outsider++
	}
	corrupt := map[string]func([]hit) []hit{
		"short": func(h []hit) []hit { return h[:len(h)-1] },
		"score off by 1e-6": func(h []hit) []hit {
			h[2].Score *= 1 + 1e-6
			return h
		},
		"wrong id with its true score": func(h []hit) []hit {
			s, _ := ref.score(q, outsider)
			h[len(h)-1] = hit{ID: outsider, Score: s}
			return h
		},
		"wrong id with the expected score": func(h []hit) []hit {
			h[len(h)-1].ID = outsider
			return h
		},
		"duplicate": func(h []hit) []hit {
			h[1] = h[0]
			return h
		},
		"unknown id": func(h []hit) []hit {
			h[0].ID = items.Rows + 5
			return h
		},
	}
	for name, f := range corrupt {
		got := f(append([]hit(nil), want...))
		if err := ref.check(q, want, got); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
}

func TestGateAllowsTiesOnlyAtTheBoundary(t *testing.T) {
	items := smallCatalog()
	ref := newReference(items, nil)
	// A query along row 0 makes rows 0 and 1 (identical) the top two;
	// with k = 1 either may be returned.
	q := append([]float64(nil), items.Row(0)...)
	want := ref.topK(q, 1)
	other := 1 - want[0].ID
	tied := []hit{{ID: other, Score: want[0].Score}}
	if err := ref.check(q, want, tied); err != nil {
		t.Fatalf("boundary tie rejected: %v", err)
	}
	// With k = 3 the tied pair sits above the boundary: dropping one of
	// them for the next-best item is not a tie.
	want = ref.topK(q, 3)
	next := ref.topK(q, 4)[3]
	got := []hit{want[0], want[2], next}
	if err := ref.check(q, want, got); err == nil {
		t.Fatal("missing tied item above the boundary accepted")
	}
}

func TestReferenceFromModelMapsIDs(t *testing.T) {
	items := smallCatalog()
	model := map[int][]float64{}
	for i := 0; i < items.Rows; i += 2 {
		model[1000+i] = items.Row(i)
	}
	ref := referenceFromModel(model, items.Cols)
	q := items.Row(10)
	for _, h := range ref.topK(q, 10) {
		if _, ok := model[h.ID]; !ok {
			t.Fatalf("answer holds id %d outside the model", h.ID)
		}
	}
}

func TestConservationLaws(t *testing.T) {
	ok := fexipro.Stats{Scanned: 10, PrunedByLength: 90, PrunedByIntHead: 4, PrunedByIntFull: 2,
		PrunedByIncremental: 1, PrunedByMonotone: 1, FullProducts: 2}
	if err := conserve(ok, 100); err != nil {
		t.Fatalf("consistent counters rejected: %v", err)
	}
	lost := ok
	lost.PrunedByLength--
	if conserve(lost, 100) == nil {
		t.Fatal("an item neither scanned nor length-pruned was accepted")
	}
	extra := ok
	extra.FullProducts++
	if conserve(extra, 100) == nil {
		t.Fatal("a scanned item counted twice was accepted")
	}
}

func TestOpenLoopCountsEveryArrival(t *testing.T) {
	var seen [100]bool
	r := openLoop(20000, len(seen), 2, len(seen), func(i int) bool {
		seen[i] = true
		return i%10 != 0
	})
	fails := 0
	for i := range seen {
		if !seen[i] || r.shed[i] {
			t.Fatalf("arrival %d not performed", i)
		}
		if r.lat[i] <= 0 {
			t.Fatalf("arrival %d has latency %v", i, r.lat[i])
		}
		if !r.ok[i] {
			fails++
		}
	}
	if fails != 10 || r.count != len(seen) {
		t.Fatalf("failures %d of %d, want 10 of 100", fails, r.count)
	}
}

func TestGeneratorShedsBeyondBacklog(t *testing.T) {
	// Nobody drains the channel, so exactly its capacity is accepted and
	// every later arrival is shed.
	const n, backlog = 50, 3
	r := newOpenResult(n)
	ch := make(chan arrival, backlog)
	r.dispatch(ch, 1e6, time.Now())
	for i := 0; i < n; i++ {
		if r.shed[i] != (i >= backlog) {
			t.Fatalf("arrival %d shed=%v, want %v", i, r.shed[i], i >= backlog)
		}
	}
	for i := 0; i < backlog; i++ {
		if a := <-ch; a.i != i {
			t.Fatalf("queued arrival %d, want %d", a.i, i)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json, which the
// benchmark's callers read, in step with what the program prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, allLayerMetrics())
	for _, m := range allLayerMetrics() {
		if !strings.Contains(m.name, ".") {
			t.Errorf("per-layer metric %s does not name its layer", m.name)
		}
	}
}
