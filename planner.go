package fexipro

import (
	"context"

	"fexipro/internal/method"
	"fexipro/internal/plan"
	"fexipro/internal/search"
)

// PlannerOptions configures NewPlanner.
type PlannerOptions struct {
	// Methods names the candidate pool (see Methods; aliases accepted).
	// Empty selects the registry's default auto pool — an exhaustive
	// scan, a pruned sorted scan, and the full FEXIPRO index — spanning
	// the scan-vs-index tradeoff without building every method.
	Methods []string
	// SampleQueries (optional) tunes candidates that calibrate a
	// checking dimension from sample queries (SS-L, LEMP).
	SampleQueries *Matrix
	// Shards > 1 partitions every candidate's index, answered through
	// the sharded execution engine with Workers goroutines per query.
	Shards, Workers int
	// ProbeEvery re-measures a non-best candidate every ProbeEvery
	// queries (0 = default, negative = never).
	ProbeEvery int
	// AllowApprox admits approximate candidates (PCATree). Without it
	// the planner only ever picks provably exact methods.
	AllowApprox bool
}

// PlanDecision reports one query's routing: which method answered, why
// it was picked, and the predicted vs observed cost.
type PlanDecision struct {
	Method           string
	Reason           string // "warmup", "probe", or "cost"
	PredictedSeconds float64
	ObservedSeconds  float64
	Cancelled        bool
}

// PlanMethodStats is one candidate's row in a PlanSummary.
type PlanMethodStats struct {
	Method      string
	Queries     int64
	Decisions   map[string]int64
	PredictedMs float64
	ObservedMs  float64
	PruneFrac   float64
}

// PlanSummary aggregates the planner's decisions and calibration.
type PlanSummary struct {
	Queries        int64
	Mispredicts    int64
	MispredictRate float64
	Methods        []PlanMethodStats
}

// Planner is the cost-based query planner behind `fexserve -method
// auto`: it builds several exact retrieval methods over the same items
// and routes each query to the predicted-cheapest one, calibrating its
// per-method cost model online from observed latencies and pruning
// fractions. Results are always produced by a real registered method —
// the planner never computes scores — so exactness is untouched: a
// mispredicted plan is slow, never wrong. The handle keeps its last
// query's stats and decision for LastStats and LastDecision, so it
// serves one goroutine at a time.
type Planner struct {
	p    *plan.Planner
	last search.Stats
	dec  plan.Decision
}

// NewPlanner builds the candidate pool and the planner over it.
func NewPlanner(items *Matrix, o PlannerOptions) (*Planner, error) {
	names := o.Methods
	if len(names) == 0 {
		names = method.AutoNames()
	}
	bo := method.BuildOptions{}
	if o.SampleQueries != nil {
		bo.SampleQueries = o.SampleQueries.m
	}
	var cands []plan.Candidate
	for _, name := range names {
		d, err := method.Get(name)
		if err != nil {
			return nil, err
		}
		s, err := method.Sharded(name, items.m, bo, o.Shards, o.Workers)
		if err != nil {
			return nil, err
		}
		cands = append(cands, plan.Candidate{
			Name:     d.Name,
			Searcher: s,
			Cost:     d.Cost,
			Exact:    d.Exact,
		})
	}
	p, err := plan.New(cands, plan.Options{
		N: items.Rows(), D: items.Cols(),
		Shards: o.Shards, Workers: o.Workers,
		ProbeEvery: o.ProbeEvery, AllowApprox: o.AllowApprox,
	})
	if err != nil {
		return nil, err
	}
	return &Planner{p: p}, nil
}

// Search implements Searcher by routing to the planned method.
func (p *Planner) Search(q []float64, k int) []Result {
	res, _ := p.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements Searcher: cancellation returns the chosen
// method's best-so-far partial results with an ErrDeadline-wrapping
// error, exactly as if that method had been called directly.
func (p *Planner) SearchContext(ctx context.Context, q []float64, k int) ([]Result, error) {
	res, st, d, err := p.p.Route(ctx, q, k)
	p.last, p.dec = st, d
	return convertResults(res), err
}

// LastStats implements Searcher: the stage counters of the method the
// last query was routed to, unchanged.
func (p *Planner) LastStats() Stats { return convertStats(p.last) }

// LastDecision reports the most recent query's plan.
func (p *Planner) LastDecision() PlanDecision {
	d := p.dec
	return PlanDecision{
		Method: d.Method, Reason: d.Reason,
		PredictedSeconds: d.Predicted, ObservedSeconds: d.Observed,
		Cancelled: d.Cancelled,
	}
}

// Candidates lists the candidate method names in pool order.
func (p *Planner) Candidates() []string { return p.p.Candidates() }

// Summary snapshots per-method decision counts and the planner's
// predicted-vs-observed calibration.
func (p *Planner) Summary() PlanSummary {
	s := p.p.Summary()
	out := PlanSummary{Queries: s.Queries, Mispredicts: s.Mispredicts, MispredictRate: s.MispredictRate}
	for _, m := range s.Methods {
		out.Methods = append(out.Methods, PlanMethodStats{
			Method: m.Method, Queries: m.Queries, Decisions: m.Decisions,
			PredictedMs: m.PredictedMs, ObservedMs: m.ObservedMs, PruneFrac: m.PruneFrac,
		})
	}
	return out
}

var _ Searcher = (*Planner)(nil)
