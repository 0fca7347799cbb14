package experiments

import (
	"encoding/json"
	"fmt"

	"fexipro/internal/obs"
	"fexipro/internal/plan"
)

// StatsReport is one (dataset, method, k) cell of the offline
// counterpart to the service's /metrics: the cumulative per-stage
// pruning counters over every query of the workload, in the exact
// schema (obs.StageCounters) that fexserve reports online. This keeps
// benchmark dumps and production telemetry diffable field by field.
type StatsReport struct {
	// GoVersion and GCFlags identify the toolchain that produced these
	// numbers (obs.Toolchain), so diffs against BENCH_seed.json can
	// separate compiler upgrades from code changes.
	GoVersion string `json:"goVersion"`
	GCFlags   string `json:"gcflags,omitempty"`

	Dataset         string            `json:"dataset"`
	Method          string            `json:"method"`
	K               int               `json:"k"`
	Queries         int               `json:"queries"`
	Items           int               `json:"items"`
	Dim             int               `json:"dim"`
	Shards          int               `json:"shards,omitempty"`
	SearchWorkers   int               `json:"searchWorkers,omitempty"`
	PreprocessMs    float64           `json:"preprocessMs"`
	RetrieveMs      float64           `json:"retrieveMs"`
	AvgFullProducts float64           `json:"avgFullProducts"`
	Stages          obs.StageCounters `json:"stages"`

	// Per-stage wall times fed by the query span tree (DESIGN.md §13),
	// present for methods that open stage spans. TransformMs is
	// the cumulative query transform (SVD projection, integer floors),
	// ScanMs the (per-shard) candidate scan, and MergeMs the canonical
	// cross-shard merge (0 for single-scan methods). They nest inside
	// RetrieveMs rather than partitioning it exactly: the gap is
	// harness bookkeeping.
	TransformMs float64 `json:"transformMs,omitempty"`
	ScanMs      float64 `json:"scanMs,omitempty"`
	MergeMs     float64 `json:"mergeMs,omitempty"`

	// Plan is the query planner's decision summary (per-method decision
	// counts, predicted-vs-observed EWMAs, mispredict rate), present
	// only for the "auto" pseudo-method, so BENCH diffs can attribute a
	// latency shift to a plan change.
	Plan *plan.Summary `json:"plan,omitempty"`
}

// CollectStats runs each named method over each configured profile at k
// and returns one StatsReport per (dataset, method) pair.
func CollectStats(cfg Config, methods []string, k int) ([]StatsReport, error) {
	if len(methods) == 0 {
		methods = MethodNames
	}
	if k <= 0 {
		k = 1
	}
	goVersion, gcflags := obs.Toolchain()
	var out []StatsReport
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		for _, name := range methods {
			r, err := RunMethodSharded(name, ds, k, false, cfg.Shards, cfg.SearchWorkers)
			if err != nil {
				return nil, fmt.Errorf("experiments: stats for %s/%s: %w", p.Name, name, err)
			}
			shards, workers := cfg.Shards, cfg.SearchWorkers
			if shards <= 1 {
				shards, workers = 0, 0 // omitted: sequential scan
			}
			rep := StatsReport{
				GoVersion:       goVersion,
				GCFlags:         gcflags,
				Dataset:         r.Dataset,
				Method:          r.Method,
				K:               r.K,
				Queries:         r.QueriesCount,
				Items:           ds.Items.Rows,
				Dim:             ds.Items.Cols,
				Shards:          shards,
				SearchWorkers:   workers,
				PreprocessMs:    float64(r.Preprocess.Microseconds()) / 1e3,
				RetrieveMs:      float64(r.Retrieve.Microseconds()) / 1e3,
				AvgFullProducts: r.AvgFullIP,
				Stages:          obs.StageCountersFrom(r.Stats),
				TransformMs:     float64(r.Transform.Microseconds()) / 1e3,
				ScanMs:          float64(r.Scan.Microseconds()) / 1e3,
				MergeMs:         float64(r.Merge.Microseconds()) / 1e3,
				Plan:            r.Plan,
			}
			out = append(out, rep)
		}
	}
	return out, nil
}

// StatsJSON renders CollectStats output as an indented JSON array.
func StatsJSON(cfg Config, methods []string, k int) (string, error) {
	reports, err := CollectStats(cfg, methods, k)
	if err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return "", err
	}
	return string(raw) + "\n", nil
}
