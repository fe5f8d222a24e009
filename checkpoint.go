package hwgc

import (
	"fmt"

	"hwgc/internal/machine"
	"hwgc/internal/snapshot"
)

// This file exposes checkpoint/restore for the simulator: a collection can
// be suspended between any two clock cycles, serialized to a snapshot, and
// later resumed — in the same process or another one — finishing with
// Stats and heap image bit-identical to the uninterrupted run. It is the
// software stand-in for the FPGA prototype's state readback (paper Section
// VI-A); cmd/gcreplay builds record/resume/bisect on it.

// Collection is an in-progress, suspendable collection cycle.
type Collection struct {
	m *machine.Machine
}

// StartCollection begins a collection over h without running it; drive it
// with StepCycles and Finish. The heap is owned by the collection until
// Finish returns.
func StartCollection(h *Heap, cfg Config) (*Collection, error) {
	m, err := machine.New(h, cfg)
	if err != nil {
		return nil, err
	}
	m.BeginCollect()
	return &Collection{m: m}, nil
}

// ResumeCollection reconstructs a suspended collection from snapshot bytes
// produced by Collection.Snapshot. The restored collection owns a private
// copy of the captured heap.
func ResumeCollection(data []byte) (*Collection, error) {
	st, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	m, err := machine.RestoreMachine(st)
	if err != nil {
		return nil, err
	}
	return &Collection{m: m}, nil
}

// Heap returns the heap the collection operates on.
func (c *Collection) Heap() *Heap { return c.m.Heap() }

// Cycle returns the collection's current clock cycle.
func (c *Collection) Cycle() int64 { return c.m.Cycle() }

// StepCycle advances the collection by one clock cycle (or one provably
// dead fast-forward jump) and reports whether it has terminated.
func (c *Collection) StepCycle() (done bool, err error) { return c.m.StepCycle() }

// StepCycles advances the collection until at least n more cycles have
// elapsed, it terminates, or an error occurs.
func (c *Collection) StepCycles(n int64) (done bool, err error) { return c.m.StepCycles(n) }

// Snapshot serializes the collection's complete state. It fails once the
// collection has terminated (there is nothing left to resume — call Finish)
// or after an error.
func (c *Collection) Snapshot() ([]byte, error) {
	st, err := c.m.Snapshot()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(st), nil
}

// Finish drives the collection to completion (if it is not already done)
// and returns its statistics; the heap has then been flipped and compacted,
// exactly as an uninterrupted Collect would have left it.
func (c *Collection) Finish() (Stats, error) { return c.m.Resume() }

// DiffSnapshots decodes two snapshots and returns their field-level
// differences, one line per differing field (capped), skipping the named
// top-level fields. Identical snapshots yield an empty slice.
func DiffSnapshots(a, b []byte, ignore ...string) ([]string, error) {
	sa, err := snapshot.Decode(a)
	if err != nil {
		return nil, fmt.Errorf("hwgc: snapshot a: %w", err)
	}
	sb, err := snapshot.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("hwgc: snapshot b: %w", err)
	}
	return snapshot.Diff(sa, sb, ignore...), nil
}

// RequestCollection is a suspendable variant of NewCollectResponse: it runs
// the simulation a canonical CollectRequest describes in slices of cycles
// that its holder may interleave with other work, and its Response is
// byte-identical to the uninterrupted NewCollectResponse encoding. The job
// tier runs every collect this way: a job preempted at a slice boundary
// keeps its RequestCollection and continues from it later.
type RequestCollection struct {
	req CollectRequest // canonicalized
	key string
	// res holds the plan's statistics, taken up front as RunBenchmark
	// does, so the plan itself can be freed while the collection runs.
	res    RunResult
	before *Graph // pre-GC oracle graph, captured when req.Verify
	col    *Collection
}

// buildRequestHeap builds the fresh heap and plan a canonicalized request
// describes. Deterministic: the same canonical request always builds the
// same heap image.
func buildRequestHeap(req *CollectRequest) (*Heap, *Plan, error) {
	if req.Plan != nil {
		h, err := req.Plan.BuildHeap(defaultHeadroom)
		if err != nil {
			return nil, nil, fmt.Errorf("hwgc: building plan: %w", err)
		}
		return h, req.Plan, nil
	}
	return buildBench(req.Bench, req.Scale, req.Seed)
}

// StartCollectRequest canonicalizes req, builds its heap and begins the
// collection, suspended at cycle 0.
func StartCollectRequest(req CollectRequest) (*RequestCollection, error) {
	key, err := req.Key() // canonicalizes req in place
	if err != nil {
		return nil, err
	}
	h, p, err := buildRequestHeap(&req)
	if err != nil {
		return nil, err
	}
	rc := &RequestCollection{req: req, key: key, res: planResult(p)}
	if req.Verify && !rc.concurrent() {
		if rc.before, err = Snapshot(h); err != nil {
			return nil, fmt.Errorf("hwgc: pre-GC snapshot: %w", err)
		}
	}
	if rc.col, err = StartCollection(h, req.Config); err != nil {
		return nil, err
	}
	return rc, nil
}

// concurrent reports whether the request runs the built-in concurrent
// mutator, in which case the stop-the-world oracle cannot predict the
// outcome and verification uses the structural integrity check instead.
func (rc *RequestCollection) concurrent() bool { return rc.req.Config.MutatorOps > 0 }

// Key returns the canonical request hash (the serving tier's cache key).
func (rc *RequestCollection) Key() string { return rc.key }

// Cycle returns the collection's current clock cycle.
func (rc *RequestCollection) Cycle() int64 { return rc.col.Cycle() }

// StepCycles advances the collection; see Collection.StepCycles.
func (rc *RequestCollection) StepCycles(n int64) (done bool, err error) {
	return rc.col.StepCycles(n)
}

// Response finishes the collection (driving it to completion if needed),
// verifies it when the request asked for verification, and returns the
// response — byte-identical, once encoded, to what NewCollectResponse
// produces for the same request uninterrupted.
func (rc *RequestCollection) Response() (*CollectResponse, error) {
	st, err := rc.col.Finish()
	if err != nil {
		return nil, err
	}
	if rc.req.Verify {
		if rc.concurrent() {
			if err := rc.col.Heap().CheckIntegrity(); err != nil {
				return nil, fmt.Errorf("hwgc: concurrent collection verification failed: %w", err)
			}
		} else if err := Verify(rc.before, rc.col.Heap()); err != nil {
			return nil, fmt.Errorf("hwgc: collection verification failed: %w", err)
		}
	}
	bench := rc.req.Bench
	if rc.req.Plan != nil {
		bench = "plan"
	}
	res := rc.res
	res.Benchmark, res.Stats = bench, st
	return &CollectResponse{Key: rc.key, Bench: bench, Scale: rc.req.Scale, Seed: rc.req.Seed, Result: res}, nil
}
