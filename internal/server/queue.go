package server

import (
	"context"
	"errors"
	"sync"
)

// Errors reported by Queue.TryPush. The handler maps ErrQueueFull to HTTP
// 429 with a Retry-After hint (backpressure) and ErrShuttingDown to 503.
var (
	ErrQueueFull    = errors.New("server: job queue full")
	ErrShuttingDown = errors.New("server: shutting down")
)

// Job is one unit of work for the pool: a canonicalized collect request
// plus the context of the HTTP request that submitted it. The
// worker invokes run and publishes the encoded response body (or error) by
// closing done.
type Job struct {
	Key  string
	ctx  context.Context
	run  func() ([]byte, error)
	body []byte
	err  error
	done chan struct{}
}

func newJob(ctx context.Context, key string, run func() ([]byte, error)) *Job {
	return &Job{Key: key, ctx: ctx, run: run, done: make(chan struct{})}
}

func (j *Job) finish(body []byte, err error) {
	j.body, j.err = body, err
	close(j.done)
}

// Queue is the bounded job queue between the HTTP handlers and the worker
// pool. Admission is non-blocking: when the queue is full the caller gets
// ErrQueueFull immediately instead of piling up goroutines — the serving
// analogue of the paper's explicit stall accounting (a full queue is a
// counted rejection, not an invisible convoy).
//
// Every send holds mu and Close marks closed under the same lock, so a
// send-on-closed-channel panic is impossible; after Close the channel
// drains through Pop until empty, which is what lets graceful shutdown
// finish every admitted job.
type Queue struct {
	mu     sync.Mutex
	closed bool
	jobs   chan *Job
}

// NewQueue creates a queue holding at most depth pending jobs.
func NewQueue(depth int) *Queue {
	if depth < 1 {
		depth = 1
	}
	return &Queue{jobs: make(chan *Job, depth)}
}

// TryPush enqueues j without blocking. It returns ErrQueueFull when the
// queue is at capacity and ErrShuttingDown after Close.
func (q *Queue) TryPush(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShuttingDown
	}
	select {
	case q.jobs <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Pop dequeues the next job, blocking until one is available or the queue
// has been closed and fully drained (ok == false).
func (q *Queue) Pop() (*Job, bool) {
	j, ok := <-q.jobs
	return j, ok
}

// Close stops admission; jobs already admitted still drain through Pop.
// Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
}

// Depth returns the number of jobs currently waiting.
func (q *Queue) Depth() int { return len(q.jobs) }

// Cap returns the queue's capacity.
func (q *Queue) Cap() int { return cap(q.jobs) }
