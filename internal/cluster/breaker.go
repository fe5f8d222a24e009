package cluster

import (
	"sync"
	"time"
)

// BreakerState is the three-state circuit-breaker state machine guarding
// one backend.
type BreakerState int32

const (
	// BreakerClosed: the backend is healthy; requests flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the backend failed repeatedly; requests are refused
	// locally until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe request is
	// admitted to decide between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a three-state circuit breaker: `threshold` consecutive
// failures open it, after `cooldown` it admits a single half-open probe,
// and the probe's outcome either closes it (automatic re-admission) or
// re-opens it for another cooldown. In the paper's terms it turns a
// persistently stalled resource into an explicit, counted rejection
// instead of an invisible convoy of waiting requests.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive failures while closed
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
	openCount int64

	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests
}

// NewBreaker creates a closed breaker that opens after `threshold`
// consecutive failures and cools down for `cooldown` before probing.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may be sent. Every true return must be
// matched by exactly one Record or Cancel call: in the half-open state the
// single probe slot is reserved by Allow and released by Record/Cancel.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // BreakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of a request admitted by Allow.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.failures = 0
		} else {
			b.open()
		}
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.open()
		}
	default: // BreakerOpen: a straggler from before the trip; nothing to do.
	}
}

// Cancel releases an Allow without recording an outcome: the send was
// abandoned by its caller, or its backend left the ring while it was in
// flight.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// open transitions to BreakerOpen. Caller holds b.mu.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
	b.openCount++
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has opened.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openCount
}
