package server

// In-package so the probe goroutine can take s.mu directly: this test
// is the runtime mirror of the //fex:lockorder declarations above the
// Server struct, referenced from that doc comment by name.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/faults"
	"fexipro/internal/vec"
)

// TestAcquisitionOrderUnderConcurrentLoad drives every lock in the
// documented hierarchy at once, under -race: concurrent HTTP mutations
// (Server.mu → WAL.mu → faults.Hook.mu) and planner-routed searches
// sharing the read lock (Server.mu → Planner.mu, Span.mu), periodic
// Checkpoint calls, SIGHUP-triggered Reload (fexserve's reload path),
// and a probe goroutine that explicitly walks the declared
// outermost-first chain — Server.mu, then the WAL and planner leaves —
// exactly as `//fex:lockorder` above the Server struct promises. A hierarchy inversion anywhere in these paths shows
// up as a deadlock, so the whole run sits behind a watchdog that dumps
// all stacks instead of letting `go test` hang to its global timeout.
func TestAcquisitionOrderUnderConcurrentLoad(t *testing.T) {
	const dim = 8
	rng := rand.New(rand.NewSource(11))
	items := vec.NewMatrix(120, dim)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	opts := core.Options{SVD: true, Int: true, Reduction: true}
	reg := faults.NewRegistry(11)
	// A small per-append latency at the WAL fault site stretches the
	// window in which Server.mu and WAL.mu are held together, making
	// the interleavings the hierarchy must survive far more likely.
	reg.Enable(faults.SiteWALWrite, faults.Plan{CallLatency: 200 * time.Microsecond})

	s, err := NewWithConfig(items, opts, Config{
		DataDir:         t.TempDir(),
		CheckpointEvery: 16,
		Faults:          reg,
		Method:          "auto",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// fexserve's SIGHUP wiring: a reload goroutine swaps in a freshly
	// built catalog on each signal. Concurrent mutations may answer 503
	// (ErrReloading) during the build — that is the documented contract,
	// not a failure.
	hup := make(chan os.Signal, 4)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	stop := make(chan struct{})
	var reloads atomic.Int64
	var loadWG, svcWG sync.WaitGroup

	svcWG.Add(1)
	go func() {
		defer svcWG.Done()
		for {
			select {
			case <-hup:
				fresh := vec.NewMatrix(100, dim)
				for i := range fresh.Data {
					fresh.Data[i] = float64(i%7) - 3
				}
				if err := s.Reload(fresh, opts); err == nil {
					reloads.Add(1)
				}
			case <-stop:
				return
			}
		}
	}()

	// Writers: adds and deletes through the real handler stack.
	for w := 0; w < 4; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			for i := 0; i < 120; i++ {
				v := make([]float64, dim)
				for j := range v {
					v[j] = float64((i+j+w)%5) - 2
				}
				body, _ := json.Marshal(map[string]any{"vector": v})
				resp, err := http.Post(ts.URL+"/v1/items", "application/json", bytes.NewReader(body))
				if err != nil {
					continue // transient during reload teardown is fine
				}
				resp.Body.Close()
				if i%3 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/items/%d", ts.URL, i), nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}

	// Searchers: the planner-routed read path under the shared lock
	// (Server.mu → Planner.mu), plus /v1/plan, which takes only
	// Planner.mu.
	for r := 0; r < 4; r++ {
		loadWG.Add(1)
		go func(r int) {
			defer loadWG.Done()
			q := make([]float64, dim)
			for j := range q {
				q[j] = float64(j%3) - 1
			}
			body, _ := json.Marshal(map[string]any{"vector": q, "k": 5})
			for i := 0; i < 150; i++ {
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				resp.Body.Close()
				if i%10 == 0 { // /v1/plan reads the planner without Server.mu
					if resp, err := http.Get(ts.URL + "/v1/plan"); err == nil {
						resp.Body.Close()
					}
				}
			}
		}(r)
	}

	// Checkpointer: fexserve's SIGTERM/periodic snapshot path, racing
	// the handlers' own CheckpointEvery-triggered checkpoints.
	svcWG.Add(1)
	go func() {
		defer svcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Checkpoint()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// Probe: walk the declared chain explicitly — take the outermost
	// lock, then touch each leaf that handlers reach while holding it.
	// If any other goroutine ever acquired these in the reverse order,
	// this loop is one half of the resulting deadlock.
	svcWG.Add(1)
	go func() {
		defer svcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			if s.wal != nil {
				_ = s.wal.NextSeq() // WAL.mu under Server.mu
			}
			_ = s.planner.Summary() // Planner.mu under Server.mu
			s.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	// Fire the reload path a few times mid-load, the way operators do.
	for i := 0; i < 3; i++ {
		time.Sleep(30 * time.Millisecond)
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatalf("sending SIGHUP: %v", err)
		}
	}

	// Watchdog: the load must drain, and at least one signal-driven
	// reload must complete while it does. A lock-order violation
	// deadlocks some subset of the goroutines above; fail with full
	// stacks rather than hanging the suite.
	await := func(what string, wg *sync.WaitGroup) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("%s still running after 60s — lock-order deadlock candidate:\n%s",
				what, buf[:runtime.Stack(buf, true)])
		}
	}
	await("writers/searchers", &loadWG)
	// The signals are already delivered (buffered channel); give the
	// reloader until the watchdog deadline to finish the last build.
	for deadline := time.Now().Add(60 * time.Second); reloads.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no SIGHUP reload completed; the reload path was not exercised")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	await("checkpoint/probe/reload goroutines", &svcWG)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := s.ClosePersistence(); err != nil {
		t.Fatalf("closing persistence: %v", err)
	}
}
