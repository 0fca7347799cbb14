package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// lateSlack is how far behind its due time the generator may hand out
// an arrival before the arrival counts as late.
const lateSlack = time.Millisecond

// arrival is one scheduled request of an open loop.
type arrival struct {
	i   int
	due time.Time
}

// openResult is what an open loop observed. lat[i] is arrival i's
// latency measured from its due time, so time spent waiting for a free
// connection counts; shed[i] marks arrivals dropped client-side because
// the backlog was full, which count as failures.
type openResult struct {
	lat   []time.Duration
	ok    []bool
	shed  []bool
	lag   []time.Duration // how late the generator handed out each arrival
	late  int
	wall  time.Duration
	count int
}

// openLoop offers n arrivals at a fixed rate to a fixed pool of workers
// and waits for all of them. do(i) performs arrival i and reports
// whether it succeeded. An arrival that finds backlog arrivals already
// waiting is shed instead of queued.
func openLoop(rate float64, n, workers, backlog int, do func(i int) bool) *openResult {
	r := newOpenResult(n)
	// The buffer is the client-side backlog: arrivals waiting for a free
	// worker. Beyond it the generator sheds rather than queue without
	// bound.
	ch := make(chan arrival, backlog)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for a := range ch {
				ok := do(a.i)
				r.lat[a.i] = time.Since(a.due)
				r.ok[a.i] = ok
			}
		}()
	}
	start := time.Now()
	r.dispatch(ch, rate, start)
	close(ch)
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

func newOpenResult(n int) *openResult {
	return &openResult{
		lat:   make([]time.Duration, n),
		ok:    make([]bool, n),
		shed:  make([]bool, n),
		lag:   make([]time.Duration, n),
		count: n,
	}
}

// dispatch is the generator: it hands arrival i to ch at start + i/rate,
// recording how late it ran, and sheds an arrival when ch is full.
func (r *openResult) dispatch(ch chan<- arrival, rate float64, start time.Time) {
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; i < r.count; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		r.lag[i] = time.Since(due)
		if r.lag[i] > lateSlack {
			r.late++
		}
		select {
		case ch <- arrival{i: i, due: due}:
		default:
			r.shed[i] = true
		}
	}
}

// sleep blocks the calling goroutine's thread in nanosleep(2). Unlike
// time.Sleep, whose wake-up the runtime's poller rounds up to whole
// milliseconds when the process is otherwise idle, it wakes within the
// kernel's timer slack, so a sub-millisecond arrival schedule holds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop runs workers that each issue do(i) back to back, with i
// drawn from one shared sequence, until the deadline. It returns how
// many calls completed, how many of those failed, the wall time, and
// every successful call's latency in milliseconds.
func closedLoop(workers int, dur time.Duration, do func(i int) bool) (completed, failed int64, wall time.Duration, lat []float64) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	lats := make([][]float64, workers)
	bad := make([]int64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for t := time.Now(); t.Before(deadline); t = time.Now() {
				if do(int(next.Add(1) - 1)) {
					lats[w] = append(lats[w], ms(time.Since(t)))
				} else {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	wall = time.Since(start)
	for w := range lats {
		lat = append(lat, lats[w]...)
		failed += bad[w]
	}
	return int64(len(lat)) + failed, failed, wall, lat
}
