package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"fexipro/internal/core"
	"fexipro/internal/method"
	"fexipro/internal/obs"
	"fexipro/internal/plan"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Query planning (DESIGN.md §16). With Config.Method == "auto" the
// server answers /v1/search through a cost-based planner instead of
// always hitting the FEXIPRO index: per query it predicts the cost of
// each exact candidate — the dynamic index (cheap per item after its
// pruning cascade, but transform overhead per query) and an exhaustive
// scan of the live catalog (no setup, every inner product computed) —
// and routes to the cheaper one, calibrating predictions online from
// observed latencies. Both candidates are exact over the same catalog,
// so routing never changes results, only latency. Decisions surface as
// fexipro_plan_decisions_total{method,reason}, per-method predicted/
// observed gauges, plan.method/plan.reason span attributes on traced
// queries, and the GET /v1/plan summary. With DataDir set, the learned
// calibration is checkpointed to plan.snap (fexplan/v1) alongside the
// index snapshot and reloaded at boot, so a restart resumes calibrated.

// methodAuto is the Config.Method value that enables the planner.
const methodAuto = "auto"

// validateMethod canonicalizes Config.Method.
func validateMethod(m string) (string, error) {
	switch strings.ToLower(m) {
	case "", "fexipro":
		return "fexipro", nil
	case methodAuto:
		return methodAuto, nil
	}
	return "", fmt.Errorf("server: unknown method %q (want \"fexipro\" or \"auto\")", m)
}

// liveIndex and liveScan are the planner's candidates. They resolve
// s.idx per call, so the planner built once at construction keeps
// routing over whatever catalog Reload swapped in, with its learned
// calibration intact. Callers hold s.mu for reading.
type liveIndex struct{ s *Server }

func (l liveIndex) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	return l.s.idx.SearchContext(ctx, q, k)
}

type liveScan struct{ s *Server }

func (l liveScan) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	return core.NewLiveScan(l.s.idx).SearchContext(ctx, q, k)
}

// initPlanner builds the planner at construction. The candidate pool is
// the serving FEXIPRO variant plus a live-catalog exhaustive scan; cost
// priors come from the method registry and are corrected online.
func (s *Server) initPlanner(opts core.Options) error {
	variant := opts.Variant()
	idxCost := method.CostModel{Setup: 6e-6, PerItem: 5e-10, PerDim: 1.1e-9, PrunePrior: 0.5}
	if d, ok := method.Lookup(variant); ok {
		idxCost = d.Cost
	}
	naive, ok := method.Lookup("Naive")
	if !ok {
		return fmt.Errorf("server: method registry has no Naive descriptor")
	}
	cands := []plan.Candidate{
		{Name: variant, Searcher: liveIndex{s}, Cost: idxCost, Exact: true},
		{Name: naive.Name, Searcher: liveScan{s}, Cost: naive.Cost, Exact: true},
	}
	p, err := plan.New(cands, plan.Options{
		D: s.dim,
		// The live catalog grows and shrinks under mutations; SizeFn runs
		// inside a search, under the caller's read lock.
		SizeFn: func() int { return s.idx.Len() },
		Shards: s.idx.Shards(), Workers: s.cfg.SearchWorkers,
		OnDecision: s.notePlanDecision,
	})
	if err != nil {
		return err
	}
	s.planner = p
	return nil
}

// notePlanDecision exports one routing decision to the metrics
// registry. Counter/gauge handles are looked up per call: the label set
// is tiny (candidates × 3 reasons) and the registry interns them.
func (s *Server) notePlanDecision(d plan.Decision) {
	s.reg.Counter(obs.MetricPlanDecisions,
		"Planner routing decisions, by chosen method and reason (warmup/probe/cost).",
		obs.L("method", d.Method), obs.L("reason", d.Reason)).Inc()
	s.reg.Gauge(obs.MetricPlanPredicted,
		"Predicted per-query cost of the chosen method at decision time (seconds).",
		obs.L("method", d.Method)).Set(d.Predicted)
	s.reg.Gauge(obs.MetricPlanObserved,
		"Observed per-query cost EWMA of the chosen method (seconds).",
		obs.L("method", d.Method)).Set(d.Observed)
}

// planCalibrationPath is where the planner's learned coefficients live
// inside the data directory (a fexsnap/v1 container holding one
// fexplan/v1 section).
func (s *Server) planCalibrationPath() string {
	return filepath.Join(s.dataDir, plan.CalibrationFile)
}

// loadPlanCalibration primes the planner from a previously checkpointed
// plan.snap. Absence is normal (first boot); a corrupt or stale file is
// logged and ignored — calibration is an optimization, never worth
// failing a boot over, and the online EWMAs re-converge regardless.
func (s *Server) loadPlanCalibration() {
	if s.planner == nil || s.dataDir == "" {
		return
	}
	cal, err := plan.ReadFile(s.planCalibrationPath())
	switch {
	case err == nil:
		s.planner.SetCalibration(cal)
	case os.IsNotExist(err):
	default:
		s.log.Warn("ignoring unreadable plan calibration", "path", s.planCalibrationPath(), "err", err)
	}
}

// savePlanCalibration persists the planner's effective cost models
// during a checkpoint. The planner guards its own state, so this needs
// no s.mu.
func (s *Server) savePlanCalibration() error {
	if s.planner == nil || s.dataDir == "" {
		return nil
	}
	return plan.WriteFile(s.planCalibrationPath(), s.planner.Calibration())
}

// planResponse is the GET /v1/plan body.
type planResponse struct {
	Mode        string            `json:"mode"`
	Candidates  []string          `json:"candidates"`
	Summary     plan.Summary      `json:"summary"`
	Calibration *plan.Calibration `json:"calibration"`
}

// handlePlan serves the planner's decision summary and calibration.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if s.planner == nil {
		httpErrorCode(w, http.StatusNotFound, "no_planner",
			"query planner not enabled; start fexserve with -method auto")
		return
	}
	writeJSON(w, planResponse{
		Mode:        methodAuto,
		Candidates:  s.planner.Candidates(),
		Summary:     s.planner.Summary(),
		Calibration: s.planner.Calibration(),
	})
}
