package cluster

import "sync"

// jobRegistry remembers the canonical POST /v1/jobs body of every job the
// fleet has routed, keyed by job ID (the request's content key). It is how
// a rebalance pass moves a job: the body is resubmitted to the new key
// owner, which re-runs the job from scratch — determinism makes the
// re-run's result byte-identical, so a move or a dead backend costs time,
// never answers.
//
// The registry is bounded FIFO: beyond the limit the oldest entries are
// evicted. An evicted job no longer moves: it finishes on the backend that
// runs it, and cannot be rescued if that backend dies.
type jobRegistry struct {
	mu   sync.Mutex
	ids  []string // insertion order, for eviction
	body map[string][]byte
}

// registryLimit bounds the registry: beyond it the oldest entries go.
const registryLimit = 4096

func newJobRegistry() *jobRegistry {
	return &jobRegistry{body: make(map[string][]byte)}
}

// Record remembers one routed submission. Re-recording an existing ID
// refreshes nothing: the body is content-addressed, so it cannot change.
func (r *jobRegistry) Record(id string, body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.body[id]; ok {
		return
	}
	for len(r.ids) >= registryLimit {
		delete(r.body, r.ids[0])
		r.ids = r.ids[1:]
	}
	r.ids = append(r.ids, id)
	r.body[id] = append([]byte(nil), body...)
}

// Snapshot returns a copy of the registry for one rebalance pass.
func (r *jobRegistry) Snapshot() map[string][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]byte, len(r.body))
	for id, b := range r.body {
		out[id] = b
	}
	return out
}

// Len returns the number of remembered submissions.
func (r *jobRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.body)
}
