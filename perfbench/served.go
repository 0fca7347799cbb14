package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/obs"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

// serverConfig is fexserve's flag defaults (F-SIR, -method fexipro, one
// shard, 5 s request timeout, 30 s cap, 64 in flight), plus tracing
// into a ring large enough for a whole pass when traced.
func serverConfig(traced bool) server.Config {
	cfg := server.Config{
		Method:         "fexipro",
		Shards:         1,
		RequestTimeout: 5 * time.Second,
		MaxTimeout:     30 * time.Second,
		MaxConcurrent:  64,
		WALSyncEvery:   1,
	}
	if traced {
		cfg.Trace = true
		cfg.SlowQuery = 0
		cfg.TraceRingSize = 1 << 16
	}
	return cfg
}

// served is an in-process server on a loopback listener, with the
// benchmark's HTTP client for it.
type served struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	wg     sync.WaitGroup
	serveE error
	timed  *timedHandler // nil when untraced
}

// startServed builds the server, listens on a loopback port and starts
// serving. The returned duration is the set-up time: from the
// constructor call until the listener accepts.
func startServed(catalog *vec.Matrix, cfg server.Config, conns int) (*served, time.Duration, error) {
	opts, err := core.OptionsForVariant("F-SIR")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	srv, err := server.NewWithConfig(catalog, opts, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("server.NewWithConfig: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	setup := time.Since(start)
	s := &served{srv: srv, base: "http://" + ln.Addr().String()}
	var h http.Handler = srv.Handler()
	if cfg.Trace {
		s.timed = &timedHandler{next: h, dur: map[string]time.Duration{}}
		h = s.timed
	}
	s.hs = &http.Server{Handler: h}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveE = s.hs.Serve(ln)
	}()
	return s, setup, nil
}

// stop shuts the server down, waits for its serving goroutine and
// closes the write-ahead log.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.wg.Wait()
	s.client.CloseIdleConnections()
	if s.serveE != nil && !errors.Is(s.serveE, http.ErrServerClosed) && err == nil {
		err = s.serveE
	}
	if perr := s.srv.ClosePersistence(); perr != nil && err == nil {
		err = perr
	}
	return err
}

// timedHandler wraps the server's Handler and records how long each
// request spent inside it, keyed by the trace ID the server assigns.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	dur  map[string]time.Duration //fex:guard mu
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	took := time.Since(start)
	id := w.Header().Get(obs.TraceHeader)
	h.mu.Lock()
	h.dur[id] = took
	h.mu.Unlock()
}

func (h *timedHandler) handlerTime(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.dur[id]
	return d, ok
}

// searchReply is the part of a /v1/search response the benchmark reads.
type searchReply struct {
	Results    []hit             `json:"results"`
	TookMicros int64             `json:"tookMicros"`
	TraceID    string            `json:"traceId"`
	Stats      obs.StageCounters `json:"stats"`
	Exact      bool              `json:"exact"`
}

// do sends one request and returns the status and body.
func (s *served) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// search runs one /v1/search with a pre-encoded body. A transport
// error, a non-200 status or an inexact answer is an error.
func (s *served) search(body []byte) (*searchReply, error) {
	code, b, err := s.do(http.MethodPost, "/v1/search", body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("search: status %d: %s", code, strings.TrimSpace(string(b)))
	}
	var rep searchReply
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("search: decoding reply: %w", err)
	}
	if !rep.Exact || len(rep.Results) != topK {
		return nil, fmt.Errorf("search: exact=%v with %d results", rep.Exact, len(rep.Results))
	}
	return &rep, nil
}

// add inserts one item and returns the ID the server assigned.
func (s *served) add(v []float64) (int, error) {
	body, err := json.Marshal(map[string][]float64{"vector": v})
	if err != nil {
		return 0, err
	}
	code, b, err := s.do(http.MethodPost, "/v1/items", body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusCreated {
		return 0, fmt.Errorf("add: status %d: %s", code, strings.TrimSpace(string(b)))
	}
	var rep struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return 0, fmt.Errorf("add: decoding reply: %w", err)
	}
	return rep.ID, nil
}

// remove deletes one item.
func (s *served) remove(id int) error {
	code, b, err := s.do(http.MethodDelete, "/v1/items/"+strconv.Itoa(id), nil)
	if err != nil {
		return err
	}
	if code != http.StatusNoContent {
		return fmt.Errorf("delete %d: status %d: %s", id, code, strings.TrimSpace(string(b)))
	}
	return nil
}

// counter reads one unlabelled counter from /metrics.
func (s *served) counter(name string) (float64, error) {
	code, b, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("metrics: status %d", code)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("metrics: %s not found", name)
}

// encodeQueries pre-encodes one /v1/search body per query, so the
// client spends no time encoding during the measured phases.
func encodeQueries(queries *vec.Matrix) ([][]byte, error) {
	out := make([][]byte, queries.Rows)
	for i := range out {
		b, err := json.Marshal(map[string]any{"vector": queries.Row(i), "k": topK})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
