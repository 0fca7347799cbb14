package plan

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fexipro/internal/method"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// fakeCand is a controllable candidate: fixed result list, fixed stats,
// optional artificial delay so decisions based on observed cost are
// deterministic in tests.
type fakeCand struct {
	id    int
	delay time.Duration
	stats search.Stats
	calls int
}

func (f *fakeCand) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	f.calls++
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return []topk.Result{{ID: f.id, Score: float64(f.id)}}, f.stats, nil
}

func newTestPlanner(t *testing.T, o Options, cands ...Candidate) *Planner {
	t.Helper()
	p, err := New(cands, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlannerWarmsUpEveryCandidate(t *testing.T) {
	a := &fakeCand{id: 1, stats: search.Stats{Scanned: 100, FullProducts: 100}}
	b := &fakeCand{id: 2, stats: search.Stats{Scanned: 100, FullProducts: 5, PrunedByLength: 95}}
	p := newTestPlanner(t, Options{N: 100, D: 8, ProbeEvery: -1},
		Candidate{Name: "A", Searcher: a, Exact: true, Cost: method.CostModel{PerDim: 1e-9}},
		Candidate{Name: "B", Searcher: b, Exact: true, Cost: method.CostModel{PerDim: 1e-9, PrunePrior: 0.9}},
	)
	q := []float64{1}
	res, got, d, err := p.Route(context.Background(), q, 1)
	if err != nil || len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("first query: res=%v err=%v, want candidate A's result", res, err)
	}
	if d.Method != "A" || d.Reason != ReasonWarmup {
		t.Fatalf("decision %+v, want A/warmup", d)
	}
	if got != a.stats {
		t.Fatalf("stats = %+v, want delegated %+v", got, a.stats)
	}
	_, _, d, _ = p.Route(context.Background(), q, 1)
	if d.Method != "B" || d.Reason != ReasonWarmup {
		t.Fatalf("second decision %+v, want B/warmup", d)
	}
	// Warmed up: all further decisions are cost-driven.
	_, _, d, _ = p.Route(context.Background(), q, 1)
	if d.Reason != ReasonCost {
		t.Fatalf("third decision %+v, want reason cost", d)
	}
	if a.calls+b.calls != 3 {
		t.Fatalf("calls %d+%d, want 3 total", a.calls, b.calls)
	}
}

func TestPlannerPrefersObservedCheaper(t *testing.T) {
	// Identical priors; candidate B is observably 50× faster. After
	// warmup the planner must route cost decisions to B.
	slow := &fakeCand{id: 1, delay: 5 * time.Millisecond, stats: search.Stats{Scanned: 1000, FullProducts: 1000}}
	fast := &fakeCand{id: 2, delay: 100 * time.Microsecond, stats: search.Stats{Scanned: 1000, FullProducts: 10, PrunedByLength: 990}}
	cost := method.CostModel{Setup: 1e-6, PerItem: 1e-9, PerDim: 1e-9}
	p := newTestPlanner(t, Options{N: 1000, D: 16, ProbeEvery: -1},
		Candidate{Name: "slow", Searcher: slow, Exact: true, Cost: cost},
		Candidate{Name: "fast", Searcher: fast, Exact: true, Cost: cost},
	)
	q := []float64{1}
	var d Decision
	for i := 0; i < 10; i++ {
		_, _, d, _ = p.Route(context.Background(), q, 1)
	}
	if d.Method != "fast" || d.Reason != ReasonCost {
		t.Fatalf("steady-state decision %+v, want fast/cost", d)
	}
	sum := p.Summary()
	if sum.Queries != 10 {
		t.Fatalf("summary queries = %d, want 10", sum.Queries)
	}
	var fastRow *MethodPlan
	for i := range sum.Methods {
		if sum.Methods[i].Method == "fast" {
			fastRow = &sum.Methods[i]
		}
	}
	if fastRow == nil || fastRow.Queries < 8 {
		t.Fatalf("fast row %+v, want ≥ 8 of 10 queries", fastRow)
	}
	if fastRow.ObservedMs <= 0 || fastRow.PredictedMs <= 0 {
		t.Fatalf("fast row %+v, want positive predicted/observed EWMAs", fastRow)
	}
}

func TestPlannerProbesStaleCandidate(t *testing.T) {
	a := &fakeCand{id: 1, stats: search.Stats{Scanned: 10}}
	b := &fakeCand{id: 2, delay: 2 * time.Millisecond, stats: search.Stats{Scanned: 10}}
	p := newTestPlanner(t, Options{N: 10, D: 4, ProbeEvery: 5},
		Candidate{Name: "A", Searcher: a, Exact: true, Cost: method.CostModel{PerItem: 1e-9}},
		Candidate{Name: "B", Searcher: b, Exact: true, Cost: method.CostModel{PerItem: 1e-9}},
	)
	q := []float64{1}
	probes := 0
	for i := 0; i < 25; i++ {
		if _, _, d, _ := p.Route(context.Background(), q, 1); d.Reason == ReasonProbe {
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("no probe decisions in 25 queries with ProbeEvery=5")
	}
}

func TestPlannerCountsMispredicts(t *testing.T) {
	// A mispredict needs the calibrated model to be wrong about the
	// world, not just the prior (the warmup observation corrects a bad
	// prior before the first cost decision — that self-repair is
	// TestPlannerPrefersObservedCheaper). So drift the workload: the
	// favored candidate turns slow AFTER its cheap warmup observation.
	// The next cost decision routes to it, observes the new slowness,
	// and must be counted as a mispredict — a wrong plan that was slow,
	// never incorrect: the results still come from a real exact method.
	steady := &fakeCand{id: 1, delay: 2 * time.Millisecond, stats: search.Stats{Scanned: 100, FullProducts: 100}}
	drifty := &fakeCand{id: 2, stats: search.Stats{Scanned: 100, FullProducts: 1, PrunedByLength: 99}}
	cost := method.CostModel{Setup: 1e-6, PerItem: 1e-9, PerDim: 1e-9}
	p := newTestPlanner(t, Options{N: 100, D: 8, ProbeEvery: -1, Alpha: 1},
		Candidate{Name: "steady", Searcher: steady, Exact: true, Cost: cost},
		Candidate{Name: "drifty", Searcher: drifty, Exact: true, Cost: cost},
	)
	q := []float64{1}
	_, _, _ = p.SearchContext(context.Background(), q, 1) // warmup steady (2ms)
	_, _, _ = p.SearchContext(context.Background(), q, 1) // warmup drifty (~0)
	drifty.delay = 20 * time.Millisecond                  // the world changes
	res, _, d, err := p.Route(context.Background(), q, 1)
	if err != nil || len(res) != 1 || res[0].ID != 2 {
		t.Fatalf("post-drift query: res=%v err=%v, want drifty's exact result", res, err)
	}
	if d.Method != "drifty" || d.Reason != ReasonCost {
		t.Fatalf("post-drift decision %+v, want drifty/cost", d)
	}
	sum := p.Summary()
	if sum.Mispredicts == 0 {
		t.Fatalf("summary %+v: drifted workload produced no mispredicts", sum)
	}
	if sum.MispredictRate <= 0 || sum.MispredictRate > 1 {
		t.Fatalf("mispredict rate %v out of range", sum.MispredictRate)
	}
	// With Alpha=1 the drift observation replaces the stale EWMA, so
	// the planner immediately routes back to the steady candidate.
	_, _, d, _ = p.Route(context.Background(), q, 1)
	if d.Method != "steady" {
		t.Fatalf("recovery decision %+v, want steady", d)
	}
}

func TestPlannerRequiresExactCandidates(t *testing.T) {
	approx := &fakeCand{id: 1}
	if _, err := New([]Candidate{{Name: "PCATree", Searcher: approx, Exact: false}}, Options{}); err == nil {
		t.Fatal("New accepted an approximate-only pool without AllowApprox")
	}
	p, err := New([]Candidate{
		{Name: "PCATree", Searcher: approx, Exact: false},
		{Name: "Naive", Searcher: &fakeCand{id: 2}, Exact: true},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Candidates(); len(got) != 1 || got[0] != "Naive" {
		t.Fatalf("candidates %v, want [Naive]", got)
	}
	p2, err := New([]Candidate{{Name: "PCATree", Searcher: approx, Exact: false}}, Options{AllowApprox: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Candidates(); len(got) != 1 || got[0] != "PCATree" {
		t.Fatalf("AllowApprox candidates %v, want [PCATree]", got)
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	c := &Calibration{Schema: Schema, Methods: map[string]method.CostModel{
		"Naive": {Setup: 1e-7, PerItem: 2e-10, PerDim: 1.1e-9},
		"F-SIR": {Setup: 2e-6, PerItem: 1e-9, PerDim: 1.2e-9, PrunePrior: 0.93},
	}}
	raw, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Methods) != 2 || got.Methods["F-SIR"].PrunePrior != 0.93 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	path := filepath.Join(t.TempDir(), CalibrationFile)
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Methods["Naive"].PerDim != 1.1e-9 {
		t.Fatalf("file round trip lost data: %+v", got2)
	}

	// Corrupt one payload byte: the fexsnap CRC must catch it.
	raw[len(raw)-20] ^= 0xff
	if _, err := Decode(raw); err == nil {
		t.Fatal("Decode accepted a corrupted container")
	}
}

func TestCalibrationValidate(t *testing.T) {
	bad := []*Calibration{
		{Schema: "fexplan/v9", Methods: map[string]method.CostModel{"Naive": {}}},
		{Schema: Schema},
		{Schema: Schema, Methods: map[string]method.CostModel{"NoSuchMethod": {}}},
		{Schema: Schema, Methods: map[string]method.CostModel{"Naive": {Setup: -1}}},
		{Schema: Schema, Methods: map[string]method.CostModel{"Naive": {PrunePrior: 1.5}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestSetCalibrationOverridesCost(t *testing.T) {
	a := &fakeCand{id: 1, stats: search.Stats{Scanned: 10}}
	b := &fakeCand{id: 2, stats: search.Stats{Scanned: 10}}
	// Priors say A is free and B is absurdly expensive.
	p := newTestPlanner(t, Options{N: 1000, D: 8, ProbeEvery: -1},
		Candidate{Name: "Naive", Searcher: a, Exact: true, Cost: method.CostModel{}},
		Candidate{Name: "F-SIR", Searcher: b, Exact: true, Cost: method.CostModel{Setup: 10}},
	)
	// Calibration flips the ranking before any query runs.
	p.SetCalibration(&Calibration{Schema: Schema, Methods: map[string]method.CostModel{
		"Naive": {Setup: 10},
		"F-SIR": {},
	}})
	f := p.features(1)
	if ca, cb := p.predict(0, f), p.predict(1, f); ca <= cb {
		t.Fatalf("after calibration predict(Naive)=%g <= predict(F-SIR)=%g, want flipped", ca, cb)
	}
	// Exported calibration reflects the override.
	out := p.Calibration()
	if out.Methods["Naive"].Setup != 10 {
		t.Fatalf("exported calibration %+v lost the override", out.Methods["Naive"])
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFitRecoversKnownModel(t *testing.T) {
	truth := method.CostModel{Setup: 5e-6, PerItem: 2e-9, PerDim: 1.5e-9}
	var samples []Sample
	for _, n := range []int{1000, 5000, 20000, 80000} {
		for _, d := range []int{8, 32, 64} {
			for _, prune := range []float64{0, 0.5, 0.9} {
				f := method.Features{N: n, D: d, K: 10, Shards: 1, PruneFrac: prune}
				samples = append(samples, Sample{
					N: n, D: d, K: 10, Shards: 1, Workers: 1,
					PruneFrac: prune,
					Seconds:   truth.Predict(f),
				})
			}
		}
	}
	got, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	within := func(got, want float64) bool {
		return got > want*0.98 && got < want*1.02
	}
	if !within(got.Setup, truth.Setup) || !within(got.PerItem, truth.PerItem) || !within(got.PerDim, truth.PerDim) {
		t.Fatalf("fit %+v, want ≈ %+v", got, truth)
	}
	// The fitted model must predict the training points closely.
	f := method.Features{N: 40000, D: 16, K: 10, Shards: 1, PruneFrac: 0.7}
	if p, w := got.Predict(f), truth.Predict(f); !within(p, w) {
		t.Fatalf("fitted prediction %g, want ≈ %g", p, w)
	}
	if _, err := Fit(samples[:2]); err == nil {
		t.Fatal("Fit accepted 2 samples")
	}
}

func TestWriteFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, CalibrationFile)
	c1 := &Calibration{Schema: Schema, Methods: map[string]method.CostModel{"Naive": {Setup: 1}}}
	c2 := &Calibration{Schema: Schema, Methods: map[string]method.CostModel{"Naive": {Setup: 2}}}
	if err := WriteFile(path, c1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, c2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Methods["Naive"].Setup != 2 {
		t.Fatalf("got %+v, want the replacement", got)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("data dir holds %d entries, want just the calibration", len(entries))
	}
}
