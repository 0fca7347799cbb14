// Package server exposes a FEXIPRO dynamic index over HTTP with a small
// JSON API — the retrieval phase of Figure 1 as a deployable service:
//
//	POST   /v1/search          {"vector": [...], "k": 10}
//	POST   /v1/above           {"vector": [...], "threshold": 3.5}
//	POST   /v1/items           {"vector": [...]}            → {"id": n}
//	DELETE /v1/items/{id}
//	GET    /v1/info
//	GET    /v1/plan            query-planner decisions (Config.Method "auto")
//	GET    /v1/healthz
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/pprof/       (opt-in via Config.EnablePprof)
//
// Every request is assigned (or propagates) an X-Trace-Id, is measured
// into the metrics registry, and emits one structured log line carrying
// the trace ID, latency, and — for search requests — k plus the
// per-pruning-stage counters of the paper's Tables 3/7.
//
// Index access goes through one read-write mutex. Searches keep no
// state in the index — each returns its own stage counters and carries
// its fault hook in the request context — so /v1/search and /v1/above
// share the read lock and run concurrently; mutations, checkpoints and
// Reload take it exclusively.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/plan"
	"fexipro/internal/search"
	"fexipro/internal/snap"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Config tunes the observability and limits of a Server. The zero value
// is usable: a private metrics registry, a no-op logger, pprof off, no
// timeout, no concurrency limit.
type Config struct {
	// Metrics receives all server and search metrics. Nil allocates a
	// private registry (still served at /metrics).
	Metrics *obs.Registry
	// Logger receives one structured line per request. Nil discards.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxK caps per-request k to bound response sizes (default 1000).
	MaxK int

	// RequestTimeout is the default per-request deadline applied to /v1/
	// routes; 0 disables. Clients may override per request with the
	// X-Timeout-Ms header.
	RequestTimeout time.Duration
	// MaxTimeout caps the effective deadline (default + header); 0 means
	// uncapped. A header value above the cap is clamped, not rejected.
	MaxTimeout time.Duration
	// MaxConcurrent bounds in-flight /v1/ requests; excess requests are
	// shed immediately with 429 and a Retry-After header. 0 disables.
	MaxConcurrent int
	// PartialOnDeadline makes /v1/search and /v1/above answer a deadline
	// expiry with 200 and the best-so-far results flagged "exact": false
	// instead of 504.
	PartialOnDeadline bool
	// Faults, when non-nil, is consulted per request for injected faults
	// at the faults.SiteServerSearch / SiteServerMutate / SiteScan sites.
	// Production servers leave it nil, which costs one nil check.
	//lint:ignore apiparity test-only injection surface, deliberately unreachable from flags
	Faults *faults.Registry

	// Method selects the retrieval strategy for /v1/search. Empty or
	// "fexipro" serves every search from the dynamic FEXIPRO index.
	// "auto" enables the cost-based query planner (DESIGN.md §16): each
	// search is routed to whichever exact candidate — the FEXIPRO index
	// or an exhaustive live-catalog scan — the calibrated cost model
	// predicts cheaper, with decisions exported as
	// fexipro_plan_decisions_total{method,reason} and GET /v1/plan.
	// Results are exact either way; a misprediction is slow, never wrong.
	Method string

	// Shards splits the dynamic index into that many independent catalog
	// shards (DESIGN.md §11): a single Add or Delete only ever rebuilds
	// the one shard owning the item, and each search fans out across the
	// shards through the sharded execution engine before merging into
	// the exact global top-k. Values ≤ 1 keep the monolithic index.
	Shards int
	// SearchWorkers bounds the per-query goroutine pool when Shards > 1
	// (≤ 0 means GOMAXPROCS, clamped to Shards). Ignored for Shards ≤ 1.
	SearchWorkers int

	// DataDir, when non-empty, enables persistence (DESIGN.md §15): boot
	// loads <dir>/current.snap and replays <dir>/dyn.wal instead of
	// rebuilding the index (a fresh directory is initialized from the
	// initial matrix and checkpointed), and every acknowledged mutation
	// is appended to the WAL before the response is sent. When a
	// snapshot exists it is authoritative: its options and shard count
	// win over the flags, and a dimensionality mismatch with the initial
	// matrix is a startup error.
	DataDir string
	// CheckpointEvery writes a fresh snapshot and truncates the WAL
	// after that many acknowledged mutations; 0 checkpoints only on
	// shutdown and reload. Requires DataDir.
	CheckpointEvery int
	// WALSyncEvery fsyncs the WAL on every Nth append (default 1 =
	// every append). Values > 1 batch fsyncs: higher mutation
	// throughput, but a crash may lose up to N-1 acknowledged records.
	WALSyncEvery int

	// Trace enables per-query span collection (DESIGN.md §13): every
	// /v1/ search and mutation gets a span tree — transform, per-shard
	// scans (with queue-wait and steal provenance), merge, rebuilds —
	// recorded into the slow-query ring served at GET /debug/queries
	// and summarized on the request log line. Off, queries pay only a
	// nil context lookup.
	Trace bool
	// SlowQuery is the minimum duration a traced query must take to
	// enter the /debug/queries ring; 0 records every traced query.
	SlowQuery time.Duration
	// TraceRingSize caps how many completed span trees /debug/queries
	// retains (default 128).
	TraceRingSize int
	// SLOs are the latency objectives whose violations are counted by
	// fexserve_slo_violations_total{objective}; a search or above-t
	// request finishing later than an objective burns it. Nil selects
	// DefaultSLOs.
	SLOs []time.Duration
}

// DefaultSLOs are the latency objectives used when Config.SLOs is nil,
// spanning the envelope of Figure 9's per-query latencies: an
// interactive bar, a comfortable bar, and a "something is wrong" bar.
var DefaultSLOs = []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond}

// Sliding-window shape for the fexipro_search_latency_window_seconds
// quantile gauges: 6 slots of 10s — /metrics answers "how slow are
// searches NOW" over the trailing ~1 minute.
const (
	windowSlots   = 6
	windowSlotDur = 10 * time.Second
)

// Server is the HTTP handler set over one dynamic index.
//
// Lock hierarchy: Server.mu is the outermost lock. Searches hold it for
// reading; mutations, checkpoints and Reload hold it exclusively. While
// holding it the handlers append to the WAL, feed the planner, and
// record span attributes — each of which takes its own (leaf) mutex.
// The fault registry is read before the lock is taken. The declarations
// below are enforced by fexlint's lockorder analyzer and mirrored at
// runtime by TestAcquisitionOrderUnderConcurrentLoad; never acquire
// Server.mu while holding any of these.
//
//fex:lockorder server.Server.mu < snap.WAL.mu
//fex:lockorder server.Server.mu < plan.Planner.mu
//fex:lockorder server.Server.mu < faults.Hook.mu
//fex:lockorder server.Server.mu < obs.Span.mu
type Server struct {
	mu  sync.RWMutex
	idx *core.DynamicIndex
	// searcher answers /v1/search: the planner with Config.Method
	// "auto", otherwise the index. Fixed at construction; both resolve
	// s.idx per call, so Reload only swaps idx.
	searcher search.Searcher
	dim      int
	// MaxK caps per-request k to bound response sizes (default 1000).
	MaxK int

	cfg      Config
	reg      *obs.Registry
	log      *slog.Logger
	rec      *obs.SearchRecorder
	reqTotal func(method, route, status string) *obs.Counter
	reqDur   func(route string) *obs.Histogram
	adds     *obs.Counter
	deletes  *obs.Counter
	items    *obs.Gauge

	// Tracing + SLO state (DESIGN.md §13).
	start       time.Time
	ring        *obs.TraceRing
	window      *obs.Window
	sloObjs     []time.Duration
	sloCounters []*obs.Counter
	uptime      *obs.Gauge
	quantiles   []*obs.Gauge // one per obs.WindowQuantiles entry

	// Query planner (Config.Method == "auto"); nil otherwise. Fixed at
	// construction and guarded by its own mutex.
	planner *plan.Planner

	// Persistence state (see persist.go); wal is nil without DataDir.
	wal             *snap.WAL
	dataDir         string
	checkpointEvery int
	sinceCheckpoint int // acknowledged mutations since the last checkpoint (under mu)
	reloading       atomic.Bool
	snapLoad        *obs.Gauge
	snapSave        *obs.Gauge
	walRecords      *obs.Counter
	walReplays      *obs.Counter

	// Guard stack (see guard.go).
	sem           chan struct{} // nil when MaxConcurrent == 0
	ready         atomic.Bool
	guardSheds    *obs.Counter
	guardTimeouts *obs.Counter
	guardPartials *obs.Counter
	guardPanics   *obs.Counter
	inflight      *obs.Gauge
	readyGauge    *obs.Gauge
}

// New builds a server over an initial item matrix (rows are items; may
// be empty with a positive dimension) using the given FEXIPRO options
// and default observability (private registry, discarded logs).
func New(initial *vec.Matrix, opts core.Options) (*Server, error) {
	return NewWithConfig(initial, opts, Config{})
}

// NewWithConfig builds a server with explicit observability wiring.
func NewWithConfig(initial *vec.Matrix, opts core.Options, cfg Config) (*Server, error) {
	methodName, merr := validateMethod(cfg.Method)
	if merr != nil {
		return nil, merr
	}
	cfg.Method = methodName
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	var (
		idx  *core.DynamicIndex
		boot *persistBoot
		err  error
	)
	if cfg.DataDir != "" {
		idx, boot, err = openPersistence(cfg, initial, opts, shards)
	} else {
		idx, err = core.NewDynamicIndexSharded(initial, opts, 0, shards, cfg.SearchWorkers)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	reg := cfg.Metrics
	s := &Server{
		idx:  idx,
		dim:  idx.Dim(),
		MaxK: cfg.MaxK,
		cfg:  cfg,
		reg:  reg,
		log:  cfg.Logger,
		rec:  obs.NewSearchRecorder(reg, opts.Variant()),
		adds: reg.Counter("fexserve_items_added_total",
			"Items inserted through POST /v1/items."),
		deletes: reg.Counter("fexserve_items_deleted_total",
			"Items retired through DELETE /v1/items/{id}."),
		items: reg.Gauge("fexserve_index_items",
			"Live items currently in the index."),
	}
	s.reqTotal = func(method, route, status string) *obs.Counter {
		return reg.Counter("fexserve_http_requests_total",
			"HTTP requests served, by method, route, and status class.",
			obs.L("method", method), obs.L("route", route), obs.L("status", status))
	}
	s.reqDur = func(route string) *obs.Histogram {
		return reg.Histogram("fexserve_http_request_duration_seconds",
			"End-to-end HTTP request latency in seconds.", nil, obs.L("route", route))
	}
	s.items.Set(float64(idx.Len()))

	// Tracing, windowed quantiles, and SLO burn counters (§13).
	s.start = time.Now()
	obs.RegisterBuildInfo(reg)
	s.uptime = reg.Gauge("fexserve_uptime_seconds",
		"Seconds since the server finished its initial index build (refreshed at scrape).")
	ringSize := cfg.TraceRingSize
	if ringSize <= 0 {
		ringSize = 128
	}
	s.ring = obs.NewTraceRing(ringSize)
	s.window = obs.NewWindow(windowSlots, windowSlotDur, nil)
	for _, q := range obs.WindowQuantiles {
		s.quantiles = append(s.quantiles, reg.Gauge(obs.MetricSearchLatencyWindow,
			"Search latency quantiles over the trailing sliding window (seconds), refreshed at scrape.",
			obs.L("quantile", strconv.FormatFloat(q, 'g', -1, 64))))
	}
	s.sloObjs = cfg.SLOs
	if s.sloObjs == nil {
		s.sloObjs = DefaultSLOs
	}
	for _, obj := range s.sloObjs {
		s.sloCounters = append(s.sloCounters, reg.Counter(obs.MetricSLOViolations,
			"Search requests finishing above a latency objective (SLO burn).",
			obs.L("objective", obj.String())))
	}
	if idx.Shards() > 1 {
		// Per-shard scan wall time (fexipro_shard_scan_seconds), labeled
		// by shard index; the per-shard stage counters already flow into
		// the cumulative SearchRecorder totals via the engine's merge.
		// idx.Shards() rather than cfg.Shards: a recovered snapshot's
		// shard count is authoritative.
		idx.SetShardObserver(obs.ShardScanObserver(reg, opts.Variant()))
	}

	// Persistence wiring (persist.go): WAL handle, checkpoint cadence,
	// and the §15 metrics, primed with what boot already did.
	if boot != nil {
		s.wal = boot.wal
		s.wal.SetFaultHook(cfg.Faults.Hook(faults.SiteWALWrite))
		s.dataDir = cfg.DataDir
		s.checkpointEvery = cfg.CheckpointEvery
		s.snapLoad = reg.Gauge(obs.MetricSnapshotLoad,
			"Wall time of the boot snapshot load + WAL replay (0 when the index was built, not loaded).")
		s.snapSave = reg.Gauge(obs.MetricSnapshotSave,
			"Wall time of the most recent snapshot checkpoint.")
		s.walRecords = reg.Counter(obs.MetricWALRecords,
			"Acknowledged mutations appended to the write-ahead log.")
		s.walReplays = reg.Counter(obs.MetricWALReplays,
			"WAL records replayed into the index during boot recovery.")
		if boot.loaded {
			s.snapLoad.Set(boot.loadDur.Seconds())
		} else {
			s.snapSave.Set(boot.saveDur.Seconds())
		}
		s.walReplays.Add(int64(boot.replayed))
	}

	// Guard stack wiring (middleware in guard.go).
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	s.guardSheds = reg.Counter("fexserve_guard_sheds_total",
		"Requests shed with 429 by the concurrency limiter.")
	s.guardTimeouts = reg.Counter("fexserve_guard_timeouts_total",
		"Search scans cancelled by a deadline or injected fault.")
	s.guardPartials = reg.Counter("fexserve_guard_partials_total",
		"Deadline-expired searches answered 200 with partial (inexact) results.")
	s.guardPanics = reg.Counter("fexserve_guard_panics_total",
		"Handler panics recovered into 500 responses.")
	s.inflight = reg.Gauge("fexserve_inflight_requests",
		"Guarded /v1/ requests currently being served.")
	s.readyGauge = reg.Gauge("fexserve_ready",
		"1 when the index is built and the server accepts traffic, else 0.")

	// Query planner (plan.go): built over the serving index, primed from
	// any checkpointed calibration in the data directory.
	s.searcher = liveIndex{s}
	if cfg.Method == methodAuto {
		if err := s.initPlanner(opts); err != nil {
			return nil, err
		}
		s.loadPlanCalibration()
		s.searcher = s.planner
	}
	s.SetReady(true) // the index build above succeeded
	return s, nil
}

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the route multiplexer wrapped with the tracing,
// logging, and metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/above", s.handleAbove)
	mux.HandleFunc("POST /v1/items", s.handleAddItem)
	mux.HandleFunc("DELETE /v1/items/", s.handleDeleteItem)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	mux.Handle("GET /metrics", s.metricsHandler())
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Guard ordering (outermost first): observe assigns the trace ID and
	// records metrics/logs for whatever status the inner layers produce;
	// recoverPanics turns panics into 500s (so they are observed);
	// shedLoad rejects excess concurrency before any work; withTimeout
	// arms the per-request deadline last, so shed requests never consume
	// a timer. See DESIGN.md "Robustness".
	return s.observe(s.recoverPanics(s.shedLoad(s.withTimeout(mux))))
}

// reqInfo is filled in by handlers so the middleware can log
// search-specific fields (k, per-stage counters, span-stage timings)
// without re-plumbing every handler's return path.
type reqInfo struct {
	k        int
	stats    obs.StageCounters
	hasStats bool

	// Span-stage summary (tracing enabled only).
	hasSpans  bool
	transform time.Duration
	scan      time.Duration
	merge     time.Duration
	rebuild   time.Duration
}

type reqInfoKey struct{}

// statusWriter captures the response status for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// observe is the middleware: trace-ID assignment/propagation, request
// metrics, and one structured log line per request.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, traceID)

		info := &reqInfo{}
		ctx := obs.WithTraceID(r.Context(), traceID)
		ctx = context.WithValue(ctx, reqInfoKey{}, info)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		took := time.Since(start)

		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := routeLabel(r)
		s.reqTotal(r.Method, route, statusClass(sw.status)).Inc()
		s.reqDur(route).Observe(took.Seconds())

		attrs := []slog.Attr{
			slog.String("traceId", traceID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("tookMicros", took.Microseconds()),
		}
		if info.hasStats {
			st := info.stats
			attrs = append(attrs,
				slog.Int("k", info.k),
				slog.Group("stages",
					slog.Int("scanned", st.Scanned),
					slog.Int("prunedByLength", st.PrunedByLength),
					slog.Int("prunedByIntHead", st.PrunedByIntHead),
					slog.Int("prunedByIntFull", st.PrunedByIntFull),
					slog.Int("prunedByIncremental", st.PrunedByIncremental),
					slog.Int("prunedByMonotone", st.PrunedByMonotone),
					slog.Int("fullProducts", st.FullProducts),
				),
			)
		}
		if info.hasSpans {
			attrs = append(attrs, slog.Group("spans",
				slog.Int64("transformMicros", info.transform.Microseconds()),
				slog.Int64("scanMicros", info.scan.Microseconds()),
				slog.Int64("mergeMicros", info.merge.Microseconds()),
				slog.Int64("rebuildMicros", info.rebuild.Microseconds()),
			))
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// routeLabel maps the request onto a bounded label set so metric
// cardinality cannot grow with URL contents.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/search":
		return "/v1/search"
	case p == "/v1/above":
		return "/v1/above"
	case p == "/v1/items":
		return "/v1/items"
	case strings.HasPrefix(p, "/v1/items/"):
		return "/v1/items/{id}"
	case p == "/v1/info":
		return "/v1/info"
	case p == "/v1/plan":
		return "/v1/plan"
	case p == "/v1/healthz" || p == "/healthz":
		return "/healthz"
	case p == "/readyz":
		return "/readyz"
	case p == "/metrics":
		return "/metrics"
	case p == "/debug/queries":
		return "/debug/queries"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	}
	return "5xx"
}

type searchRequest struct {
	Vector    []float64 `json:"vector"`
	K         int       `json:"k"`
	Threshold *float64  `json:"threshold"`
}

type resultJSON struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

type searchResponse struct {
	Results    []resultJSON      `json:"results"`
	TookMicros int64             `json:"tookMicros"`
	TraceID    string            `json:"traceId,omitempty"`
	Stats      obs.StageCounters `json:"stats"`
	// Exact is true only when the scan ran to completion: a deadline
	// expiry answered with partial results (Config.PartialOnDeadline)
	// reports false, and the result set may be missing items.
	Exact bool `json:"exact"`
}

func (s *Server) decodeVector(w http.ResponseWriter, r *http.Request, req *searchRequest) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	if len(req.Vector) != s.dim {
		httpError(w, http.StatusBadRequest, "vector has %d dims, index has %d", len(req.Vector), s.dim)
		return false
	}
	for i, v := range req.Vector {
		if isNaNOrInf(v) {
			httpError(w, http.StatusBadRequest, "vector[%d] is not finite", i)
			return false
		}
	}
	return true
}

// noteSearch records a completed search into the cumulative metrics,
// the sliding latency window, and the SLO burn counters, and exposes
// its counters to the logging middleware.
func (s *Server) noteSearch(r *http.Request, k int, st search.Stats, took time.Duration) obs.StageCounters {
	sc := obs.StageCountersFrom(st)
	s.rec.RecordSearch(st, took.Seconds())
	s.window.Observe(took.Seconds())
	for i, obj := range s.sloObjs {
		if took > obj {
			s.sloCounters[i].Inc()
		}
	}
	if info, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		info.k = k
		info.stats = sc
		info.hasStats = true
	}
	return sc
}

// scanContext returns the request context carrying the scan-site fault
// hook, read from the registry once per request so tests can Enable or
// Disable it between requests.
func (s *Server) scanContext(r *http.Request) context.Context {
	return faults.WithHook(r.Context(), s.cfg.Faults.Hook(faults.SiteScan))
}

// search answers one top-k query under the shared read lock. The
// deferred unlock keeps an injected panic mid-scan from wedging the
// lock; the scan's hold time is bounded by the request deadline.
func (s *Server) search(ctx context.Context, q []float64, k int) ([]topk.Result, search.Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.searcher.SearchContext(ctx, q, k)
}

// above answers one above-threshold query under the shared read lock.
// It always uses the index: the planner only arbitrates top-k, where
// the scan-vs-index tradeoff is per query.
func (s *Server) above(ctx context.Context, q []float64, t float64) ([]topk.Result, search.Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.SearchAboveContext(ctx, q, t)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerSearch) {
		return
	}
	var req searchRequest
	if !s.decodeVector(w, r, &req) {
		return
	}
	if req.K <= 0 {
		httpError(w, http.StatusBadRequest, "k must be positive, got %d", req.K)
		return
	}
	if req.K > s.MaxK {
		httpError(w, http.StatusBadRequest, "k %d exceeds maximum %d", req.K, s.MaxK)
		return
	}
	r, root := s.traceStart(r, "search")
	start := time.Now()
	results, st, err := s.search(s.scanContext(r), req.Vector, req.K)
	took := time.Since(start)
	sc := s.noteSearch(r, req.K, st, took)
	s.traceFinish(r, root, "search", req.K, took, err == nil, &sc)
	if !s.deadlineOK(w, r, err) {
		return
	}
	writeJSON(w, searchResponse{
		Results:    toResultsJSON(results),
		TookMicros: took.Microseconds(),
		TraceID:    obs.TraceIDFrom(r.Context()),
		Stats:      sc,
		Exact:      err == nil,
	})
}

func (s *Server) handleAbove(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerSearch) {
		return
	}
	var req searchRequest
	if !s.decodeVector(w, r, &req) {
		return
	}
	if req.Threshold == nil || isNaNOrInf(*req.Threshold) {
		httpError(w, http.StatusBadRequest, "a finite threshold is required")
		return
	}
	r, root := s.traceStart(r, "above")
	start := time.Now()
	results, st, err := s.above(s.scanContext(r), req.Vector, *req.Threshold)
	took := time.Since(start)
	sc := s.noteSearch(r, 0, st, took)
	s.traceFinish(r, root, "above", 0, took, err == nil, &sc)
	if !s.deadlineOK(w, r, err) {
		return
	}
	if len(results) > s.MaxK {
		results = results[:s.MaxK] // keep responses bounded
	}
	writeJSON(w, searchResponse{
		Results:    toResultsJSON(results),
		TookMicros: took.Microseconds(),
		TraceID:    obs.TraceIDFrom(r.Context()),
		Stats:      sc,
		Exact:      err == nil,
	})
}

type addItemRequest struct {
	Vector []float64 `json:"vector"`
}

func (s *Server) handleAddItem(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerMutate) {
		return
	}
	var req addItemRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Vector) != s.dim {
		httpError(w, http.StatusBadRequest, "vector has %d dims, index has %d", len(req.Vector), s.dim)
		return
	}
	for i, v := range req.Vector {
		if isNaNOrInf(v) {
			httpError(w, http.StatusBadRequest, "vector[%d] is not finite", i)
			return
		}
	}
	if s.reloading.Load() {
		httpErrorCode(w, http.StatusServiceUnavailable, "reloading", "catalog reload in progress; retry shortly")
		return
	}
	r, root := s.traceStart(r, "add")
	start := time.Now()
	s.mu.Lock()
	id, err := s.idx.AddContext(r.Context(), req.Vector)
	var ckptErr error
	if err == nil {
		// Apply-then-log under one lock: the WAL record is written only
		// for mutations that took effect, and the request is acknowledged
		// only after the record is durable (persist.go).
		ckptErr, err = s.logMutationLocked(snap.WALAdd, id, req.Vector)
	}
	n := s.idx.Len()
	s.mu.Unlock()
	if ckptErr != nil {
		s.log.Error("periodic checkpoint failed", "err", ckptErr)
	}
	s.traceFinish(r, root, "add", 0, time.Since(start), err == nil, nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "add failed: %v", err)
		return
	}
	s.adds.Inc()
	s.items.Set(float64(n))
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]int{"id": id})
}

func (s *Server) handleDeleteItem(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerMutate) {
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/items/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad item id %q", idStr)
		return
	}
	if s.reloading.Load() {
		httpErrorCode(w, http.StatusServiceUnavailable, "reloading", "catalog reload in progress; retry shortly")
		return
	}
	r, root := s.traceStart(r, "delete")
	start := time.Now()
	s.mu.Lock()
	err = s.idx.DeleteContext(r.Context(), id)
	var walErr, ckptErr error
	if err == nil {
		ckptErr, walErr = s.logMutationLocked(snap.WALDelete, id, nil)
	}
	n := s.idx.Len()
	s.mu.Unlock()
	if ckptErr != nil {
		s.log.Error("periodic checkpoint failed", "err", ckptErr)
	}
	s.traceFinish(r, root, "delete", 0, time.Since(start), err == nil && walErr == nil, nil)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	if walErr != nil {
		httpError(w, http.StatusInternalServerError, "delete failed: %v", walErr)
		return
	}
	s.deletes.Inc()
	s.items.Set(float64(n))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n, shards := s.idx.Len(), s.idx.Shards()
	s.mu.RUnlock()
	writeJSON(w, map[string]any{"items": n, "dim": s.dim, "shards": shards, "method": s.cfg.Method})
}

func toResultsJSON(rs []topk.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{ID: r.ID, Score: r.Score}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing recoverable remains.
		return
	}
}

// errorResponse is the JSON body of every non-2xx answer: a
// human-readable message, a stable machine-readable code, and the
// request's trace ID for log correlation.
type errorResponse struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"traceId,omitempty"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpErrorCode(w, status, defaultErrorCode(status), format, args...)
}

func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best-effort: the status code is already on the wire. The trace ID
	// header was set by the observe middleware before any handler ran.
	_ = json.NewEncoder(w).Encode(errorResponse{
		Error:   fmt.Sprintf(format, args...),
		Code:    code,
		TraceID: w.Header().Get(obs.TraceHeader),
	})
}

func defaultErrorCode(status int) string {
	switch {
	case status == http.StatusBadRequest:
		return "bad_request"
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusGatewayTimeout:
		return "deadline"
	case status >= 500:
		return "internal"
	}
	return "error"
}

func isNaNOrInf(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0)
}
