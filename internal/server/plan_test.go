package server_test

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/plan"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

func testItems(n, d int, seed int64) *vec.Matrix {
	//lint:ignore rngseed every caller passes a constant seed
	rng := rand.New(rand.NewSource(seed))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	return items
}

func newAutoServer(t *testing.T, items *vec.Matrix, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg.Method = "auto"
	srv, err := server.NewWithConfig(items, core.Options{SVD: true, Int: true, Reduction: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

type planResp struct {
	Mode       string   `json:"mode"`
	Candidates []string `json:"candidates"`
	Summary    struct {
		Queries     int64 `json:"queries"`
		Mispredicts int64 `json:"mispredicts"`
		Methods     []struct {
			Method    string           `json:"method"`
			Queries   int64            `json:"queries"`
			Decisions map[string]int64 `json:"decisions"`
		} `json:"methods"`
	} `json:"summary"`
	Calibration struct {
		Schema string `json:"schema"`
	} `json:"calibration"`
}

// TestAutoMethodExactAndObservable is the planner's end-to-end contract:
// `-method auto` answers with results identical to the fixed-method
// server, and every routing decision is visible on /v1/plan and
// /metrics.
func TestAutoMethodExactAndObservable(t *testing.T) {
	items := testItems(300, 8, 7)
	_, auto := newAutoServer(t, items, server.Config{})

	fixed, err := server.New(items.Clone(), core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	fixedTS := httptest.NewServer(fixed.Handler())
	defer fixedTS.Close()

	rng := rand.New(rand.NewSource(11))
	const queries = 8
	for i := 0; i < queries; i++ {
		q := make([]float64, 8)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		body := map[string]any{"vector": q, "k": 5}
		got := decode[searchResp](t, postJSON(t, auto.URL+"/v1/search", body))
		want := decode[searchResp](t, postJSON(t, fixedTS.URL+"/v1/search", body))
		if len(got.Results) != len(want.Results) {
			t.Fatalf("query %d: %d results, fixed server returned %d", i, len(got.Results), len(want.Results))
		}
		for r := range got.Results {
			if got.Results[r].ID != want.Results[r].ID ||
				math.Abs(got.Results[r].Score-want.Results[r].Score) > 1e-7 {
				t.Fatalf("query %d result %d: auto %+v, fixed %+v", i, r, got.Results[r], want.Results[r])
			}
		}
	}

	// Every query shows up as a decision on /v1/plan.
	resp, err := http.Get(auto.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	p := decode[planResp](t, resp)
	if p.Mode != "auto" || p.Summary.Queries != queries {
		t.Fatalf("plan mode %q queries %d, want auto/%d", p.Mode, p.Summary.Queries, queries)
	}
	if len(p.Candidates) != 2 || p.Candidates[1] != "Naive" {
		t.Fatalf("candidates %v, want [variant, Naive]", p.Candidates)
	}
	if p.Calibration.Schema != plan.Schema {
		t.Fatalf("calibration schema %q, want %q", p.Calibration.Schema, plan.Schema)
	}
	var decided int64
	for _, m := range p.Summary.Methods {
		for _, c := range m.Decisions {
			decided += c
		}
	}
	if decided != queries {
		t.Fatalf("decision counts sum to %d, want %d", decided, queries)
	}

	// The decision counter and calibration gauges are on /metrics.
	mresp, err := http.Get(auto.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"fexipro_plan_decisions_total{",
		"fexipro_plan_predicted_seconds{",
		"fexipro_plan_observed_seconds{",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestPlanSpanAttrs: traced searches under -method auto carry the
// routing decision as plan.* attributes on the root span.
func TestPlanSpanAttrs(t *testing.T) {
	items := testItems(200, 6, 9)
	_, ts := newAutoServer(t, items, server.Config{Trace: true})

	q := map[string]any{"vector": []float64{1, -0.5, 0, 0.3, 0.1, -1}, "k": 4}
	decode[searchResp](t, postJSON(t, ts.URL+"/v1/search", q))

	_, _, entries := debugQueries(t, ts.URL)
	if len(entries) == 0 {
		t.Fatal("no traced entries recorded")
	}
	attrs := entries[0].Span.Attrs
	m, ok := attrs["plan.method"].(string)
	if !ok || m == "" {
		t.Fatalf("root span missing plan.method: %v", attrs)
	}
	if r, ok := attrs["plan.reason"].(string); !ok ||
		(r != "warmup" && r != "probe" && r != "cost") {
		t.Fatalf("root span plan.reason = %v, want warmup/probe/cost", attrs["plan.reason"])
	}
	if _, ok := attrs["plan.predicted_us"]; !ok {
		t.Fatalf("root span missing plan.predicted_us: %v", attrs)
	}
}

// TestPlanEndpointWithoutPlanner: fixed-method servers 404 /v1/plan.
func TestPlanEndpointWithoutPlanner(t *testing.T) {
	ts, _ := newTestServer(t, 50, 4)
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestUnknownMethodRejected: Config.Method is validated at boot.
func TestUnknownMethodRejected(t *testing.T) {
	_, err := server.NewWithConfig(testItems(10, 4, 1), core.Options{}, server.Config{Method: "LEMP"})
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v, want unknown method", err)
	}
}

// TestPlanCalibrationPersists: a checkpoint writes plan.snap next to the
// index snapshot, and the next boot loads it back into the planner.
func TestPlanCalibrationPersists(t *testing.T) {
	dir := t.TempDir()
	items := testItems(120, 6, 3)
	srv, ts := newAutoServer(t, items, server.Config{DataDir: dir})

	q := map[string]any{"vector": []float64{1, 0, -1, 0.5, 0, 0.2}, "k": 3}
	for i := 0; i < 4; i++ {
		decode[searchResp](t, postJSON(t, ts.URL+"/v1/search", q))
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := srv.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, plan.CalibrationFile)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint left no %s: %v", plan.CalibrationFile, err)
	}
	cal, err := plan.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Methods) != 2 {
		t.Fatalf("calibration covers %d methods, want 2", len(cal.Methods))
	}

	// Reboot from the data dir: searches still answer, and a corrupt
	// calibration file must not brick the boot.
	srv2, ts2 := newAutoServer(t, items, server.Config{DataDir: dir})
	got := decode[searchResp](t, postJSON(t, ts2.URL+"/v1/search", q))
	if len(got.Results) != 3 {
		t.Fatalf("post-reboot search returned %d results", len(got.Results))
	}
	_ = srv2.ClosePersistence()

	raw, _ := os.ReadFile(path)
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, ts3 := newAutoServer(t, items, server.Config{DataDir: dir})
	got = decode[searchResp](t, postJSON(t, ts3.URL+"/v1/search", q))
	if len(got.Results) != 3 {
		t.Fatalf("corrupt-calibration boot search returned %d results", len(got.Results))
	}
	_ = srv3.ClosePersistence()
	_ = srv
}

// TestAutoReloadKeepsVariant: under the planner, Reload accepts a new
// catalog built with the serving variant and rejects one built with a
// different variant, whose name and cost prior the planner would not
// reflect.
func TestAutoReloadKeepsVariant(t *testing.T) {
	srv, ts := newAutoServer(t, testItems(30, 4, 31), server.Config{})
	if err := srv.Reload(testItems(40, 4, 32), core.Options{SVD: true}); err == nil {
		t.Fatal("reload with a different variant accepted under the planner")
	}
	if err := srv.Reload(testItems(40, 4, 33), core.Options{SVD: true, Int: true, Reduction: true}); err != nil {
		t.Fatalf("reload with the serving variant: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	pr := decode[planResp](t, resp)
	want := core.Options{SVD: true, Int: true, Reduction: true}.Variant()
	if len(pr.Candidates) == 0 || pr.Candidates[0] != want {
		t.Fatalf("planner candidates after reload %v, want %s first", pr.Candidates, want)
	}
}
