// Package stagecounters is a fexlint golden fixture for the
// stagecounters analyzer.
package stagecounters

// Stats mirrors the shared per-query counter schema.
type Stats struct {
	Scanned          int
	PrunedByLength   int
	PrunedByMonotone int
}

// TotalPruned deliberately omits PrunedByMonotone.
func (s Stats) TotalPruned() int { // want `TotalPruned omits stage counter\(s\) PrunedByMonotone`
	return s.PrunedByLength
}

// StageCounters mirrors the exported telemetry schema.
type StageCounters struct {
	Scanned        int
	PrunedByLength int
	Pruned         int
}

func convertPartial(st Stats) StageCounters {
	return StageCounters{ // want `StageCounters literal omits field\(s\) Pruned`
		Scanned:        st.Scanned,
		PrunedByLength: st.PrunedByLength,
	}
}

func convertFull(st Stats) StageCounters {
	// Complete keyed literal: allowed.
	return StageCounters{
		Scanned:        st.Scanned,
		PrunedByLength: st.PrunedByLength,
		Pruned:         st.PrunedByLength + st.PrunedByMonotone,
	}
}

const (
	MetricGood    = "fexipro_scanned_items_total"
	MetricColons  = "fexipro:recorded:total" // colons are valid
	MetricLeading = "9leading_digit"         // want `violates the Prometheus naming grammar`
	MetricDash    = "fexipro-dash"           // want `violates the Prometheus naming grammar`
)

type collector struct{ floor float64 }

func (c *collector) Threshold() float64 { return c.floor }

type searcher struct {
	stats Stats
	norms []float64
}

func (s *searcher) searchBad(c *collector) {
	t := c.Threshold()
	for _, n := range s.norms {
		if n <= t { // want `threshold-guarded exit does not increment`
			break
		}
		s.stats.Scanned++
	}
}

func (s *searcher) searchGood(c *collector) {
	t := c.Threshold()
	theta := t * 0.5 // taint propagates through derived values
	for i, n := range s.norms {
		if n <= theta { // counted prune: allowed
			s.stats.PrunedByLength += len(s.norms) - i
			break
		}
		s.stats.Scanned++
	}
}

// scanBad and scanGood count into a *Stats parameter, the shape of
// every scanRange: check 1 covers them without any Stats field.
func scanBad(c *collector, norms []float64, stats *Stats) {
	t := c.Threshold()
	for _, n := range norms {
		if n < t { // want `threshold-guarded exit does not increment`
			return
		}
		stats.Scanned++
	}
}

func scanGood(c *collector, norms []float64, stats *Stats) {
	t := c.Threshold()
	for i, n := range norms {
		if n < t {
			stats.PrunedByLength += len(norms) - i
			return
		}
		stats.Scanned++
	}
}

func (s *searcher) reset(n int) {
	s.stats = Stats{}          // whole-struct reset: allowed
	s.stats.PrunedByLength = n // want `plain assignment to stage counter`
}
