package jobs

import (
	"testing"

	"hwgc"
)

func testSched(t *testing.T, spec string) *Scheduler {
	t.Helper()
	classes, err := ParseClasses(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(classes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drainPicks simulates the runner loop: repeatedly pick the next job and
// charge its class, re-enqueueing the job so both classes stay backlogged,
// and count picks per class.
func drainPicks(t *testing.T, s *Scheduler, rounds int) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for i := 0; i < rounds; i++ {
		j := s.Next()
		if j == nil {
			t.Fatal("scheduler closed unexpectedly")
		}
		counts[j.Class]++
		s.Charge(j.Class)
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	return counts
}

func TestSchedulerWeightedShares(t *testing.T) {
	s := testSched(t, "fast:8,slow:1")
	fast := &job{ID: "f", Class: "fast", State: StateQueued}
	slow := &job{ID: "s", Class: "slow", State: StateQueued}
	if err := s.Enqueue(fast); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(slow); err != nil {
		t.Fatal(err)
	}
	counts := drainPicks(t, s, 900)
	ratio := float64(counts["fast"]) / float64(counts["slow"])
	// Aging softens the 8:1 ideal; anything clearly weight-proportional is
	// fine, equal-share round-robin is not.
	if ratio < 3 {
		t.Fatalf("fast:slow pick ratio = %d:%d (%.2f), want weight-proportional", counts["fast"], counts["slow"], ratio)
	}
	if counts["slow"] == 0 {
		t.Fatal("weight-1 class starved")
	}
}

func TestSchedulerAgingPreventsStarvation(t *testing.T) {
	// With aggressive aging, the weight-1 class must be picked within a
	// bounded number of slices even against a weight-64 flood.
	classes, _ := ParseClasses("heavy:64,light:1")
	s, err := NewScheduler(classes, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(&job{ID: "h", Class: "heavy"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(&job{ID: "l", Class: "light"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		j := s.Next()
		if j.Class == "light" {
			return // picked within the bound
		}
		s.Charge(j.Class)
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("light class not picked within 64 slices despite aging")
}

// TestSchedulerCheckpointedRequeuesAtFront: a preempted job, which holds a
// parked collection, re-enters its class queue ahead of the jobs that
// arrived after it.
func TestSchedulerCheckpointedRequeuesAtFront(t *testing.T) {
	s := testSched(t, "batch:1")
	a := &job{ID: "a", Class: "batch", State: StateQueued}
	b := &job{ID: "b", Class: "batch", State: StateQueued}
	pre := &job{ID: "pre", Class: "batch", State: StateQueued, rc: &hwgc.RequestCollection{}}
	for _, j := range []*job{a, b} {
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue(pre); err != nil {
		t.Fatal(err)
	}
	if got := s.Next(); got != pre {
		t.Fatalf("first pick = %s, want the preempted job", got.ID)
	}
	if got := s.Next(); got != a {
		t.Fatalf("second pick = %s, want a", got.ID)
	}
}

func TestSchedulerIdleClassCannotBankCredit(t *testing.T) {
	s := testSched(t, "a:1,b:1")
	ja := &job{ID: "ja", Class: "a"}
	if err := s.Enqueue(ja); err != nil {
		t.Fatal(err)
	}
	// Class a runs alone for many slices while b idles.
	for i := 0; i < 100; i++ {
		j := s.Next()
		s.Charge(j.Class)
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	// When b wakes, its pass is clamped to a's: it must not monopolize the
	// runner for 100 slices to "catch up".
	jb := &job{ID: "jb", Class: "b"}
	if err := s.Enqueue(jb); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		j := s.Next()
		counts[j.Class]++
		s.Charge(j.Class)
		if err := s.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	if counts["b"] > 14 {
		t.Fatalf("re-admitted class monopolized the runner: %v", counts)
	}
	if counts["a"] == 0 {
		t.Fatalf("established class starved by re-admission: %v", counts)
	}
}

func TestSchedulerRemoveAndDepths(t *testing.T) {
	s := testSched(t, "interactive:8,batch:1")
	j := &job{ID: "x", Class: "batch"}
	if err := s.Enqueue(j); err != nil {
		t.Fatal(err)
	}
	d := s.Depths()
	if d["batch"] != 1 || d["interactive"] != 0 {
		t.Fatalf("depths = %v", d)
	}
	if !s.Remove(j) {
		t.Fatal("Remove did not find the queued job")
	}
	if s.Remove(j) {
		t.Fatal("Remove found an already-removed job")
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog = %d after remove", s.Backlog())
	}
}

func TestSchedulerCloseUnblocksNext(t *testing.T) {
	s := testSched(t, "batch:1")
	done := make(chan *job, 1)
	go func() { done <- s.Next() }()
	s.Close(false)
	if j := <-done; j != nil {
		t.Fatalf("Next returned %v after Close, want nil", j)
	}
	if err := s.Enqueue(&job{ID: "x", Class: "batch"}); err == nil {
		t.Fatal("Enqueue accepted a job after Close")
	}
}
