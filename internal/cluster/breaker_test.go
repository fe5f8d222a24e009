package cluster

import (
	"testing"
	"time"
)

// fakeClock drives a Breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(0, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after 2 failures, want closed (threshold 3)", b.State())
	}
	b.Allow()
	b.Record(false) // third consecutive failure
	if b.State() != BreakerOpen {
		t.Fatalf("state %s after 3 failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(true) // streak broken
	b.Allow()
	b.Record(false)
	b.Allow()
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state %s, want closed: failures are counted consecutively", b.State())
	}
}

func TestBreakerHalfOpenProbeAndReadmission(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Allow()
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s, want open", b.State())
	}

	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted before cooldown elapsed")
	}
	clk.advance(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe not admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %s, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second probe admitted while the first is in flight")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after successful probe, want closed (re-admission)", b.State())
	}
	if !b.Allow() {
		t.Fatal("re-admitted breaker refused a request")
	}
	b.Record(true)
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Allow()
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("admitted immediately after a failed probe; cooldown must restart")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown elapsed but probe not admitted")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %s, want closed", b.State())
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

func TestBreakerCancelReleasesProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Allow()
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	b.Cancel() // probe abandoned by its caller before a verdict
	if !b.Allow() {
		t.Fatal("canceled probe slot not released")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %s, want closed", b.State())
	}
}
