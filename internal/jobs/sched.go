package jobs

import (
	"fmt"
	"slices"
	"sync"
)

// Scheduler shares the runner pool across priority classes with stride
// (weighted-fair) scheduling plus anti-starvation aging, and decides which
// running job must yield when higher-priority work arrives.
//
// Each class accumulates a virtual "pass" value: executing one slice
// (Options.SliceCycles, the scheduler's service quantum) advances the
// class's pass by 1/weight, and the backlogged class with the smallest
// effective pass runs next — so over time each backlogged class receives
// runner slices in proportion to its weight, exactly the paper's
// amortization argument at job granularity (a small fixed synchronization
// cost per slice buys interleaving of many short units with long ones).
// Aging subtracts a small bonus per consecutive losing pick from a
// backlogged class's pass, so even a weight-1 class under a persistent
// heavy load is dragged to the front in bounded time.
//
// Preemption: when a job arrives in class H and every runner is busy, the
// running job from the lowest-weight class L with weight(L) < weight(H) is
// flagged; it yields at its next slice boundary. The strict inequality
// makes preemption a one-way street (interactive preempts batch, never the
// reverse, and equal classes never thrash), and because a preempted job
// loses no work — its live collection is parked on the job record and
// continues at its next dispatch — a wrong guess costs a requeue, not a
// redo. The one equal-weight case is a job with a
// synchronous waiter: it may also flag a running job of its own weight that
// nobody waits for synchronously, so a request waits for at most one slice
// of async work (Manager.maybePreempt).
//
// Within a class, a job with a synchronous waiter (Manager.Collect) runs
// ahead of every job without one: each class queue is a prefix of
// sync-waited jobs in arrival order followed by the rest, so queued async
// work never delays a synchronous request.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	classes map[string]*schedClass
	order   []string // class names, configuration order (deterministic ties)
	closed  bool
	// runQueued makes a closed scheduler hand out its queued jobs before
	// Next returns nil.
	runQueued bool

	// aging is the pass bonus a backlogged class earns per losing pick.
	aging float64
	// vtime is the global virtual time: the pass of the most recently
	// picked class. A class waking from idle is clamped up to it.
	vtime float64
}

// schedClass is one priority class's queue and fair-share accounting.
type schedClass struct {
	name   string
	weight int
	queue  []*job // sync-waited jobs, then parked ones, then FIFO
	nsync  int    // length of the sync-waited prefix of queue
	pass   float64
	age    int // consecutive picks lost while backlogged
}

// defaultAging is the pass bonus per losing pick: small enough that weights
// dominate steady-state shares, large enough that a weight-1 class facing a
// weight-8 flood is picked within tens of slices rather than hundreds.
const defaultAging = 1.0 / 64

// NewScheduler builds a scheduler over the given classes.
func NewScheduler(classes []ClassConfig, aging float64) (*Scheduler, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("jobs: scheduler needs at least one class")
	}
	if aging <= 0 {
		aging = defaultAging
	}
	s := &Scheduler{classes: make(map[string]*schedClass, len(classes)), aging: aging}
	s.cond = sync.NewCond(&s.mu)
	for _, c := range classes {
		if c.Weight < 1 {
			return nil, fmt.Errorf("jobs: class %q: weight %d < 1", c.Name, c.Weight)
		}
		if _, dup := s.classes[c.Name]; dup {
			return nil, fmt.Errorf("jobs: duplicate class %q", c.Name)
		}
		s.classes[c.Name] = &schedClass{name: c.Name, weight: c.Weight}
		s.order = append(s.order, c.Name)
	}
	return s, nil
}

// Class reports whether name is a configured class.
func (s *Scheduler) Class(name string) bool {
	_, ok := s.classes[name]
	return ok
}

// Weight returns the weight of a configured class (0 if unknown).
func (s *Scheduler) Weight(name string) int {
	if c, ok := s.classes[name]; ok {
		return c.weight
	}
	return 0
}

// Enqueue adds j to its class queue. A job with a synchronous waiter goes
// to the end of the sync-waited prefix; a preempted job, which holds a
// parked collection, goes right behind that prefix so intra-class order
// stays FIFO by submission; other jobs go to the back. The caller holds the
// manager's lock, which guards j.waiters and j.rc. A class waking from idle
// has its pass clamped up to the global virtual time so it cannot bank
// credit while idle and then starve everyone else (the standard
// stride-scheduling re-admission rule); a class whose only job is merely
// cycling through the runner sits at the virtual-time frontier already, so
// the clamp is a no-op for it and its earned advantage survives.
func (s *Scheduler) Enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed && !s.runQueued {
		return fmt.Errorf("jobs: scheduler closed")
	}
	c, ok := s.classes[j.Class]
	if !ok {
		return fmt.Errorf("jobs: unknown class %q", j.Class)
	}
	if len(c.queue) == 0 && c.pass < s.vtime {
		c.pass = s.vtime
	}
	switch {
	case j.waiters > 0:
		c.queue = slices.Insert(c.queue, c.nsync, j)
		c.nsync++
	case j.rc != nil:
		c.queue = slices.Insert(c.queue, c.nsync, j)
	default:
		c.queue = append(c.queue, j)
	}
	s.cond.Signal()
	return nil
}

// Next blocks until a job is available (returning the fair-share pick) or
// the scheduler is closed (returning nil). A closed scheduler dispatches
// nothing more, unless it was closed to run its queued jobs: then Next
// returns nil once no job is left.
func (s *Scheduler) Next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed && !s.runQueued {
			return nil
		}
		if j := s.pick(); j != nil || s.closed {
			return j
		}
		s.cond.Wait()
	}
}

// pick dequeues from the backlogged class with the smallest effective pass
// (pass minus the aging bonus), breaking ties toward the higher weight and
// then configuration order. Callers hold s.mu.
func (s *Scheduler) pick() *job {
	var best *schedClass
	for _, name := range s.order {
		c := s.classes[name]
		if len(c.queue) == 0 {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		ce, be := c.pass-s.aging*float64(c.age), best.pass-s.aging*float64(best.age)
		if ce < be || (ce == be && c.weight > best.weight) {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	j := best.queue[0]
	best.queue = best.queue[1:]
	if best.nsync > 0 {
		best.nsync--
	}
	best.age = 0
	s.vtime = best.pass
	for _, name := range s.order {
		c := s.classes[name]
		if c != best && len(c.queue) > 0 {
			c.age++
		}
	}
	return j
}

// Charge advances class's pass by one service quantum (one executed slice).
func (s *Scheduler) Charge(class string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.classes[class]; ok {
		c.pass += 1.0 / float64(c.weight)
	}
}

// Remove deletes j from its class queue (cancellation of a queued job). It
// reports whether the job was found and removed.
func (s *Scheduler) Remove(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.classes[j.Class]
	if !ok {
		return false
	}
	i := slices.Index(c.queue, j)
	if i < 0 {
		return false
	}
	c.queue = slices.Delete(c.queue, i, i+1)
	if i < c.nsync {
		c.nsync--
	}
	return true
}

// Depths returns the queued-job count per class (for metrics and /healthz).
func (s *Scheduler) Depths() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.classes))
	for name, c := range s.classes {
		out[name] = int64(len(c.queue))
	}
	return out
}

// Backlog returns the total queued-job count.
func (s *Scheduler) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.classes {
		n += len(c.queue)
	}
	return n
}

// SyncBacklog returns the queued jobs that have a synchronous waiter.
func (s *Scheduler) SyncBacklog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.classes {
		n += c.nsync
	}
	return n
}

// Close stops admission. Without runQueued every blocked Next returns nil,
// queued jobs stay queued (they are durable in the WAL; a restart
// re-enqueues them) and Enqueue fails; with runQueued, Next still hands out
// every queued job before it returns nil, and Enqueue still takes a job
// that yielded (the drain of a queue that is not durable).
func (s *Scheduler) Close(runQueued bool) {
	s.mu.Lock()
	s.closed = true
	s.runQueued = runQueued
	s.mu.Unlock()
	s.cond.Broadcast()
}
