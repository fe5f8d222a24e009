package jobs

import (
	"fmt"
	"hash/fnv"
	"maps"
	"testing"
)

// drainBacklog fills a fresh two-class stride scheduler with a full backlog
// of both classes, then picks and charges until it is empty. It returns the
// two deterministic metrics BenchmarkJobScheduler reports:
//
//   - sched-picks: the picks completed (the drained backlog size);
//   - sched-order-hash: an FNV-32a hash of the class-name pick sequence.
//     The discipline is deterministic (stride + aging with deterministic
//     tie-breaks), so an altered weight rule, aging constant or tie-break
//     shifts this hash.
func drainBacklog(tb testing.TB) map[string]int64 {
	const perClass = 256
	classes := []ClassConfig{
		{Name: "interactive", Weight: 8},
		{Name: "batch", Weight: 1},
	}
	s, err := NewScheduler(classes, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close(false)
	// A full backlog of both classes before the first pick, so every pick
	// exercises the contended cross-class decision.
	for n := 0; n < perClass; n++ {
		for _, c := range classes {
			j := &job{ID: fmt.Sprintf("%s-%d", c.Name, n), Class: c.Name, State: StateQueued}
			if err := s.Enqueue(j); err != nil {
				tb.Fatal(err)
			}
		}
	}
	h := fnv.New32a()
	var picks int64
	for s.Backlog() > 0 {
		j := s.Next()
		if j == nil {
			tb.Fatal("scheduler closed with backlog remaining")
		}
		_, _ = h.Write([]byte(j.Class))
		s.Charge(j.Class)
		picks++
	}
	return map[string]int64{"sched-picks": picks, "sched-order-hash": int64(h.Sum32())}
}

// BenchmarkJobScheduler measures the pure scheduling cost of the stride
// scheduler — enqueue, fair-share pick, and service charge for a mixed
// interactive/batch backlog — without running any simulation work.
// TestPinsScheduler holds its deterministic metrics.
func BenchmarkJobScheduler(b *testing.B) {
	var m map[string]int64
	for i := 0; i < b.N; i++ {
		m = drainBacklog(b)
	}
	for name, v := range m {
		b.ReportMetric(float64(v), name)
	}
}

// TestPinsScheduler pins the stride scheduler's pick order on the
// BenchmarkJobScheduler backlog.
func TestPinsScheduler(t *testing.T) {
	checkPins(t, drainBacklog(t), map[string]int64{"sched-picks": 512, "sched-order-hash": 3043871285})
}

// checkPins fails t unless got equals the pinned metrics exactly.
func checkPins(t *testing.T, got, want map[string]int64) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Errorf("got %v, pinned %v", got, want)
	}
}
