// Package core ties the paper's primary contribution together: it builds
// benchmark heaps, runs the simulated multi-core GC coprocessor
// (internal/machine) over them, verifies every collection against the
// reference oracle (internal/gcalgo), and exposes the sweep helpers the
// experiment harness and the public API are built on.
package core

import (
	"fmt"

	"hwgc/internal/gcalgo"
	"hwgc/internal/heap"
	"hwgc/internal/machine"
	"hwgc/internal/workload"
)

// Config re-exports the coprocessor configuration.
type Config = machine.Config

// Stats re-exports the per-collection statistics.
type Stats = machine.Stats

// DefaultSeed is the seed used by the experiment harness, chosen once so
// every table and figure is reproducible bit for bit.
const DefaultSeed int64 = 42

// DefaultHeadroom follows the paper's rule of thumb of dimensioning the heap
// at twice the minimal size.
const DefaultHeadroom = 2.0

// RunResult describes one verified collection of one benchmark heap.
type RunResult struct {
	Benchmark string
	Stats     Stats
	// PlanObjects/PlanWords: total allocated (live + garbage).
	PlanObjects int
	PlanWords   int
	// LiveObjects/LiveWords: reachable from the roots, i.e. surviving.
	LiveObjects int
	LiveWords   int
}

// BuildBench constructs a fresh heap for the named benchmark.
func BuildBench(bench string, scale int, seed int64) (*heap.Heap, *workload.Plan, error) {
	spec, err := workload.Get(bench)
	if err != nil {
		return nil, nil, err
	}
	if scale < 1 {
		scale = 1
	}
	plan := spec.Plan(scale, seed)
	h, err := plan.BuildHeap(DefaultHeadroom)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building %s: %w", bench, err)
	}
	return h, plan, nil
}

// CollectOnce runs a single simulated collection cycle over h and, when
// verify is set, checks the result against the reference oracle.
func CollectOnce(h *heap.Heap, cfg Config, verify bool) (Stats, error) {
	// With the built-in concurrent mutator the heap graph changes during the
	// collection, so the stop-the-world oracle cannot predict the outcome;
	// verification falls back to the structural integrity check.
	concurrent := cfg.WithDefaults().MutatorOps > 0
	var before *gcalgo.Graph
	if verify && !concurrent {
		var err error
		before, err = gcalgo.Snapshot(h)
		if err != nil {
			return Stats{}, fmt.Errorf("core: pre-GC snapshot: %w", err)
		}
	}
	m, err := machine.New(h, cfg)
	if err != nil {
		return Stats{}, err
	}
	st, err := m.Collect()
	if err != nil {
		return Stats{}, err
	}
	if verify {
		if concurrent {
			if err := h.CheckIntegrity(); err != nil {
				return Stats{}, fmt.Errorf("core: concurrent collection verification failed: %w", err)
			}
		} else if err := gcalgo.VerifyCollection(before, h); err != nil {
			return Stats{}, fmt.Errorf("core: collection verification failed: %w", err)
		}
	}
	return st, nil
}

// RunBenchmark builds the named benchmark at the given scale/seed and runs
// one verified collection with cfg.
func RunBenchmark(bench string, scale int, seed int64, cfg Config, verify bool) (RunResult, error) {
	h, plan, err := BuildBench(bench, scale, seed)
	if err != nil {
		return RunResult{}, err
	}
	// Take the plan's statistics first: the plan is then unreferenced, so
	// the Go collector can free it while the simulation runs.
	res := RunResult{Benchmark: bench, PlanObjects: len(plan.Objs), PlanWords: plan.Words()}
	res.LiveObjects, res.LiveWords = plan.LiveStats()
	if res.Stats, err = CollectOnce(h, cfg, verify); err != nil {
		return RunResult{}, fmt.Errorf("core: %s: %w", bench, err)
	}
	return res, nil
}

// RunPlan builds a heap from a custom (user-supplied) plan and runs one
// collection with cfg, optionally verified. name labels the result.
func RunPlan(name string, plan *workload.Plan, cfg Config, verify bool) (RunResult, error) {
	h, err := plan.BuildHeap(DefaultHeadroom)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: building plan: %w", err)
	}
	st, err := CollectOnce(h, cfg, verify)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: %s: %w", name, err)
	}
	liveObj, liveWords := plan.LiveStats()
	return RunResult{
		Benchmark:   name,
		Stats:       st,
		PlanObjects: len(plan.Objs),
		PlanWords:   plan.Words(),
		LiveObjects: liveObj,
		LiveWords:   liveWords,
	}, nil
}

// SweepCores runs the benchmark once per core count (on identically built
// fresh heaps) and returns the results in order. This is the measurement
// underlying the paper's Figures 5 and 6 and Table I.
func SweepCores(bench string, coreCounts []int, scale int, seed int64, cfg Config, verify bool) ([]RunResult, error) {
	out := make([]RunResult, 0, len(coreCounts))
	for _, n := range coreCounts {
		c := cfg
		c.Cores = n
		r, err := RunBenchmark(bench, scale, seed, c, verify)
		if err != nil {
			return nil, fmt.Errorf("core: sweep %s at %d cores: %w", bench, n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// PaperCoreCounts are the coprocessor sizes measured in the paper.
var PaperCoreCounts = []int{1, 2, 4, 8, 16}
