package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/scan"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

// mutation is one acknowledged catalog change: an add (id is the ID the
// server assigned) or a delete.
type mutation struct {
	add bool
	id  int
	vec []float64
}

// observedSearch is one reader's search with the window it ran in:
// lo mutations were acknowledged before it started, and at most hi had
// been issued when it finished.
type observedSearch struct {
	q      []float64
	ids    []int
	scores []float64
	lo, hi int
}

// TestReadersSeeAcknowledgedCatalog is the model check for the shared
// read lock: readers search through Handler() while one writer adds
// and deletes. Every search must equal scan.Naive over the catalog
// after the m-th mutation, for some m between the mutations
// acknowledged before the search started and those issued by the time
// it finished — a torn or stale read fails here, and a data race in
// the read path fails under -race.
func TestReadersSeeAcknowledgedCatalog(t *testing.T) {
	const (
		n0, d, k  = 240, 8, 5
		mutations = 60
		readers   = 3
		perReader = 25
	)
	rng := rand.New(rand.NewSource(20261017))
	initial := vec.NewMatrix(n0, d)
	for i := range initial.Data {
		initial.Data[i] = rng.NormFloat64()
	}
	srv, err := server.NewWithConfig(initial, core.Options{SVD: true, Int: true, Reduction: true},
		server.Config{Shards: 3, SearchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method, path string, body any) *httptest.ResponseRecorder {
		raw, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
		return rec
	}

	// The writer's plan is fixed up front; the IDs of adds come back in
	// the acknowledgements.
	writerRng := rand.New(rand.NewSource(5))
	log := make([]mutation, 0, mutations)
	var issued, acked atomic.Int64
	live := make([]int, n0)
	for i := range live {
		live[i] = i
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for m := 0; m < mutations; m++ {
			issued.Store(int64(m + 1))
			if m%3 == 2 {
				j := writerRng.Intn(len(live))
				id := live[j]
				live = append(live[:j], live[j+1:]...)
				if rec := serve(http.MethodDelete, fmt.Sprintf("/v1/items/%d", id), nil); rec.Code != http.StatusNoContent {
					t.Errorf("delete %d: status %d", id, rec.Code)
					return
				}
				log = append(log, mutation{id: id})
			} else {
				v := make([]float64, d)
				for j := range v {
					v[j] = writerRng.NormFloat64()
				}
				rec := serve(http.MethodPost, "/v1/items", map[string]any{"vector": v})
				var out struct{ ID int }
				if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
					t.Errorf("add: status %d", rec.Code)
					return
				}
				live = append(live, out.ID)
				log = append(log, mutation{add: true, id: out.ID, vec: v})
			}
			acked.Store(int64(m + 1))
		}
	}()

	queries := make([][]float64, readers*perReader)
	for i := range queries {
		queries[i] = make([]float64, d)
		for j := range queries[i] {
			queries[i][j] = rng.NormFloat64()
		}
	}
	observed := make([][]observedSearch, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				q := queries[r*perReader+i]
				lo := int(acked.Load())
				rec := serve(http.MethodPost, "/v1/search", map[string]any{"vector": q, "k": k})
				hi := int(issued.Load())
				var resp struct {
					Results []struct {
						ID    int
						Score float64
					}
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("reader %d search %d: status %d", r, i, rec.Code)
					return
				}
				o := observedSearch{q: q, lo: lo, hi: hi}
				for _, res := range resp.Results {
					o.ids = append(o.ids, res.ID)
					o.scores = append(o.scores, res.Score)
				}
				observed[r] = append(observed[r], o)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay the log: catalog m is the initial matrix after the first m
	// mutations. IDs are stable, so one vector table serves every m.
	vecs := make([][]float64, n0, n0+mutations)
	for i := range vecs {
		vecs[i] = initial.Row(i)
	}
	alive := make([][]bool, mutations+1)
	alive[0] = make([]bool, n0)
	for i := range alive[0] {
		alive[0][i] = true
	}
	for m, mu := range log {
		next := append([]bool(nil), alive[m]...)
		if mu.add {
			for len(vecs) <= mu.id {
				vecs = append(vecs, nil)
				next = append(next, false)
			}
			vecs[mu.id] = mu.vec
			next[mu.id] = true
		} else {
			next[mu.id] = false
		}
		alive[m+1] = next
	}
	naiveAt := func(m int, q []float64) ([]int, []float64) {
		var ids []int
		var rows [][]float64
		for id, ok := range alive[m] {
			if ok {
				ids = append(ids, id)
				rows = append(rows, vecs[id])
			}
		}
		var gotIDs []int
		var scores []float64
		for _, r := range scan.NewNaive(vec.FromRows(rows)).Search(q, k) {
			gotIDs = append(gotIDs, ids[r.ID])
			scores = append(scores, r.Score)
		}
		return gotIDs, scores
	}
	matches := func(o observedSearch, m int) bool {
		ids, scores := naiveAt(m, o.q)
		if len(ids) != len(o.ids) {
			return false
		}
		for i := range ids {
			// Per-shard transforms make scores exact to float tolerance,
			// not bitwise.
			if ids[i] != o.ids[i] || math.Abs(scores[i]-o.scores[i]) > 1e-9*(1+math.Abs(scores[i])) {
				return false
			}
		}
		return true
	}
	overlapped := 0
	for r, list := range observed {
		for i, o := range list {
			if o.lo < mutations {
				overlapped++
			}
			ok := false
			for m := o.lo; m <= o.hi && !ok; m++ {
				ok = matches(o, m)
			}
			if !ok {
				t.Fatalf("reader %d search %d: result %v matches no catalog between mutations %d and %d", r, i, o.ids, o.lo, o.hi)
			}
		}
	}
	t.Logf("%d of %d searches overlapped the writer", overlapped, readers*perReader)
}
