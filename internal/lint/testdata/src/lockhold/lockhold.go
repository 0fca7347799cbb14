// Package lockhold is a fexlint golden fixture for mutex discipline:
// balanced Lock/Unlock, the defer-Lock typo, and blocking operations
// inside held regions.
package lockhold

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

type index struct{}

func (index) SearchContext(ctx context.Context, q []float64, k int) []int { return nil }

// S carries the guarded state.
type S struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	ch     chan int
	idx    index
	logger *slog.Logger
}

func (s *S) deferTypo() {
	defer s.mu.Lock() // want `almost certainly a typo for defer s.mu.Unlock`
}

func (s *S) deferTypoRead() {
	defer s.rw.RLock() // want `almost certainly a typo for defer s.rw.RUnlock`
}

func (s *S) unbalanced() {
	s.mu.Lock() // want `has no matching Unlock in this function`
}

func (s *S) sleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding s.mu`
	s.mu.Unlock()
}

func (s *S) sendHeld() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.ch <- 1 // want `channel send while holding s.rw`
}

func (s *S) recvHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	<-s.ch // want `channel receive while holding s.mu`
}

func (s *S) selectHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `blocking select while holding s.mu`
	case v := <-s.ch:
		_ = v
	}
}

func (s *S) scanHeld(ctx context.Context, q []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.SearchContext(ctx, q, 10) // want `SearchContext call .a full scan. while holding s.mu`
}

// scanShared: readers share an RWMutex, so a scan under the read lock
// is the documented read path, not a queue of full scans.
func (s *S) scanShared(ctx context.Context, q []float64) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.idx.SearchContext(ctx, q, 10)
}

func (s *S) scanHeldWrite(ctx context.Context, q []float64) {
	s.rw.Lock()
	defer s.rw.Unlock()
	s.idx.SearchContext(ctx, q, 10) // want `SearchContext call .a full scan. while holding s.rw`
}

func (s *S) logHeld() {
	s.mu.Lock()
	s.logger.Info("msg") // want `slog call .Info. while holding s.mu`
	s.mu.Unlock()
}

func (s *S) fnHeld(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn() // want `call through function value fn .unbounded hold time. while holding s.mu`
}

// sleepy blocks directly; relay blocks only transitively. The fixpoint
// summarizes both, and a held-region call to relay names the chain.
func sleepy() { time.Sleep(time.Millisecond) }

func relay() { sleepy() }

func (s *S) transitiveHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	relay() // want `call to relay while holding s.mu reaches a blocking operation .relay → sleepy → time.Sleep.`
}

// lockedHelper takes its own lock but never blocks: mutex operations
// are not part of the callee summary, so calling it under s.mu is fine.
func (s *S) lockedHelper() {
	s.rw.RLock()
	defer s.rw.RUnlock()
}

func pure() {}

func (s *S) cleanHelpersHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockedHelper()
	pure()
}

// afterUnlock: the held region ends at the unlock, so nothing after it
// is flagged.
func (s *S) afterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
	time.Sleep(time.Millisecond)
}

// pollSelect: a select with a default clause is a non-blocking poll.
func (s *S) pollSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		_ = v
	default:
	}
}

// handoff documents a cross-function lock protocol with an ignore
// directive, which must suppress the unbalanced-lock diagnostic.
func (s *S) handoff() {
	//lint:ignore lockhold released by the caller via releaseHandoff
	s.mu.Lock()
}

func (s *S) releaseHandoff() {
	s.mu.Unlock()
}
