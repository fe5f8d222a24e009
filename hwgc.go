// Package hwgc is a library-grade reproduction of the system described in
// O. Horvath and M. Meyer, "Fine-Grained Parallel Compacting Garbage
// Collection through Hardware-Supported Synchronization" (ICPP 2010).
//
// The paper parallelizes Cheney's copying collector at object granularity
// with a single shared work list — the tospace region between the scan and
// free pointers — and makes the required synchronization affordable with a
// multi-core GC coprocessor: hardware locks for scan/free, per-core
// header-lock registers compared in parallel, hardware termination
// detection, a memory access scheduler that orders header accesses with a
// comparator array, and an on-chip FIFO for gray tospace headers.
//
// This package exposes:
//
//   - a word-addressed semispace object heap (NewHeap) with the paper's
//     object layout (two-word header, pointer area, data area);
//   - a deterministic cycle-stepped simulator of the coprocessor (Collect),
//     which reports the paper's metrics: collection duration in clock
//     cycles, per-cause stall cycles, empty-work-list cycles, FIFO and
//     memory statistics;
//   - an untimed reference collector and a verification oracle
//     (CollectSequential, Snapshot, Verify);
//   - the synthetic workload suite standing in for the paper's Java
//     benchmarks (Workloads, RunBenchmark, SweepCores);
//   - a mutator driver for multi-collection runs (NewMutator);
//   - software-parallel baseline collectors from the paper's related-work
//     discussion (Baselines, RunBaseline) for comparison;
//   - a monitoring facility in the spirit of the prototype's on-chip signal
//     tracer (NewMonitor, CollectTraced).
//
// All simulated measurements are deterministic: the same heap, seed and
// configuration produce bit-identical statistics.
package hwgc

import (
	"fmt"
	"io"

	"hwgc/internal/baseline"
	"hwgc/internal/gcalgo"
	"hwgc/internal/heap"
	"hwgc/internal/machine"
	"hwgc/internal/mutator"
	"hwgc/internal/object"
	"hwgc/internal/plan"
	"hwgc/internal/trace"
	"hwgc/internal/workload"
)

// Core data types, aliased from the internal packages so their methods and
// fields are part of the public API.
type (
	// Addr is a word address in the simulated memory; 0 is the nil pointer.
	Addr = object.Addr
	// Word is one memory word.
	Word = object.Word
	// Header is a decoded object header.
	Header = object.Header
	// Heap is a two-semispace object heap.
	Heap = heap.Heap
	// Config parameterizes the simulated GC coprocessor.
	Config = machine.Config
	// Stats reports one simulated collection cycle.
	Stats = machine.Stats
	// CoreStats holds the per-core counters of Stats.
	CoreStats = machine.CoreStats
	// Plan is a buildable description of an object graph.
	Plan = workload.Plan
	// WorkloadSpec is a named benchmark workload.
	WorkloadSpec = workload.Spec
	// Graph is the canonical logical object graph used for verification.
	Graph = gcalgo.Graph
	// Monitor samples the coprocessor's internal signals while it runs.
	Monitor = trace.Monitor
	// Mutator drives a heap through allocation and collection cycles.
	Mutator = mutator.Mutator
	// ChurnConfig parameterizes Mutator.RunChurn.
	ChurnConfig = mutator.ChurnConfig
	// MutatorStats reports a concurrent mutator's progress and stalls.
	MutatorStats = machine.MutatorStats
	// BarrierMode selects the write-barrier discipline the concurrent
	// mutator's pointer stores go through.
	BarrierMode = machine.BarrierMode
	// NUMAPlacement selects how the collector places the tospace relative
	// to the NUMA domains (Config.NUMAPlacement).
	NUMAPlacement = machine.NUMAPlacement
)

// Write-barrier modes for concurrent collection (Config.BarrierMode).
const (
	// BarrierNone performs pointer stores with no barrier bookkeeping.
	BarrierNone = machine.BarrierNone
	// BarrierSATB is the Yuasa-style snapshot-at-the-beginning deletion
	// barrier: the overwritten slot's old target is shaded.
	BarrierSATB = machine.BarrierSATB
	// BarrierIncUpdate is the Dijkstra-style incremental-update insertion
	// barrier: the newly stored target is shaded.
	BarrierIncUpdate = machine.BarrierIncUpdate
)

// Tospace placement policies for the NUMA model (Config.NUMAPlacement).
const (
	// PlacementNaive interleaves the tospace across all domains.
	PlacementNaive = machine.PlacementNaive
	// PlacementLocal serves each core's evacuation window from its own
	// domain, so copied words never cross a domain boundary.
	PlacementLocal = machine.PlacementLocal
)

// NilPtr is the null object reference.
const NilPtr = object.NilPtr

// NewHeap creates a heap with two semispaces of semiWords words each.
func NewHeap(semiWords int) *Heap { return heap.New(semiWords) }

// Collect runs one garbage collection cycle over h on the simulated
// multi-core coprocessor and returns its clock-cycle statistics. On return
// the heap has been flipped and compacted.
func Collect(h *Heap, cfg Config) (Stats, error) {
	m, err := machine.New(h, cfg)
	if err != nil {
		return Stats{}, err
	}
	return m.Collect()
}

// CollectVerified is Collect plus an oracle check that the collection
// preserved the logical object graph exactly and compacted perfectly. With
// the built-in concurrent mutator (Config.MutatorOps) the heap graph changes
// during the collection, so the stop-the-world oracle cannot predict the
// outcome; verification then falls back to the structural integrity check.
func CollectVerified(h *Heap, cfg Config) (Stats, error) {
	concurrent := cfg.WithDefaults().MutatorOps > 0
	var before *Graph
	if !concurrent {
		var err error
		if before, err = gcalgo.Snapshot(h); err != nil {
			return Stats{}, fmt.Errorf("hwgc: pre-GC snapshot: %w", err)
		}
	}
	st, err := Collect(h, cfg)
	if err != nil {
		return Stats{}, err
	}
	if concurrent {
		if err := h.CheckIntegrity(); err != nil {
			return Stats{}, fmt.Errorf("hwgc: concurrent collection verification failed: %w", err)
		}
	} else if err := gcalgo.VerifyCollection(before, h); err != nil {
		return Stats{}, fmt.Errorf("hwgc: collection verification failed: %w", err)
	}
	return st, nil
}

// collect is CollectVerified when verify is set and Collect otherwise.
func collect(h *Heap, cfg Config, verify bool) (Stats, error) {
	if verify {
		return CollectVerified(h, cfg)
	}
	return Collect(h, cfg)
}

// CollectTraced runs Collect with a Monitor attached, sampling the
// coprocessor's internal signals every mon.Interval cycles.
func CollectTraced(h *Heap, cfg Config, mon *Monitor) (Stats, error) {
	m, err := machine.New(h, cfg)
	if err != nil {
		return Stats{}, err
	}
	mon.Attach(m)
	return m.Collect()
}

// CollectSequential runs the untimed reference implementation of Cheney's
// sequential algorithm over h (useful as a specification and for fast bulk
// collections in tests).
func CollectSequential(h *Heap) (liveObjects, liveWords int, err error) {
	return gcalgo.Collect(h)
}

// Snapshot captures the canonical logical object graph of h's current
// space, for later comparison with Verify.
func Snapshot(h *Heap) (*Graph, error) { return gcalgo.Snapshot(h) }

// Verify checks that h holds exactly the logical graph captured before a
// collection, with perfect compaction.
func Verify(before *Graph, h *Heap) error { return gcalgo.VerifyCollection(before, h) }

// NewMonitor creates a signal monitor sampling every interval cycles and
// retaining up to maxSamples samples.
func NewMonitor(interval int64, maxSamples int) *Monitor {
	return trace.NewMonitor(interval, maxSamples)
}

// NewMutator creates a mutator over a fresh heap with the given semispace
// size, collected by a coprocessor configured with cfg.
func NewMutator(semiWords int, cfg Config) (*Mutator, error) {
	return mutator.New(semiWords, cfg)
}

// Workloads returns the names of the built-in benchmark workloads, in the
// paper's table order.
func Workloads() []string { return workload.Names() }

// ReadPlan decodes and validates a JSON-encoded object-graph plan (a custom
// workload); see WritePlan for the format. The codec (one implementation,
// shared by the CLI, the gcserved service and the fuzz target) lives in
// internal/plan.
func ReadPlan(r io.Reader) (*Plan, error) { return plan.Read(r) }

// ReadPlanFile decodes and validates the JSON plan stored at path.
func ReadPlanFile(path string) (*Plan, error) { return plan.ReadFile(path) }

// WritePlan encodes a plan as JSON.
func WritePlan(w io.Writer, p *Plan) error { return plan.Write(w, p) }

// Workload returns the named benchmark workload.
func Workload(name string) (WorkloadSpec, error) { return workload.Get(name) }

// DefaultSeed is the workload seed used when a request or experiment
// leaves it unset, chosen once so every table and figure is reproducible bit
// for bit.
const DefaultSeed int64 = 42

// defaultHeadroom follows the paper's rule of thumb of dimensioning the heap
// at twice the minimal size.
const defaultHeadroom = 2.0

// PaperCoreCounts are the coprocessor sizes measured in the paper (1, 2, 4,
// 8, 16).
var PaperCoreCounts = []int{1, 2, 4, 8, 16}

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

// buildBench constructs a fresh heap and its plan for the named benchmark.
func buildBench(bench string, scale int, seed int64) (*Heap, *Plan, error) {
	spec, err := workload.Get(bench)
	if err != nil {
		return nil, nil, err
	}
	if scale < 1 {
		scale = 1
	}
	plan := spec.Plan(scale, seed)
	h, err := plan.BuildHeap(defaultHeadroom)
	if err != nil {
		return nil, nil, fmt.Errorf("hwgc: building %s: %w", bench, err)
	}
	return h, plan, nil
}

// BuildWorkload constructs a fresh heap holding the named benchmark's object
// graph at the given scale and seed.
func BuildWorkload(name string, scale int, seed int64) (*Heap, error) {
	h, _, err := buildBench(name, scale, seed)
	return h, err
}

// RunBenchmark builds the named benchmark and runs one collection with cfg,
// verifying the result against the reference oracle when verify is set.
func RunBenchmark(name string, scale int, seed int64, cfg Config, verify bool) (RunResult, error) {
	h, plan, err := buildBench(name, scale, seed)
	if err != nil {
		return RunResult{}, err
	}
	// Take the plan's statistics first: the plan is then unreferenced, so
	// the Go collector can free it while the simulation runs.
	res := planResult(plan)
	res.Benchmark = name
	if res.Stats, err = collect(h, cfg, verify); err != nil {
		return RunResult{}, fmt.Errorf("hwgc: %s: %w", name, err)
	}
	return res, nil
}

// planResult returns a RunResult holding p's statistics.
func planResult(p *Plan) RunResult {
	res := RunResult{PlanObjects: len(p.Objs), PlanWords: p.Words()}
	res.LiveObjects, res.LiveWords = p.LiveStats()
	return res
}

// RunPlan builds a heap from a custom plan and runs one collection with cfg,
// verifying against the reference oracle when verify is set. name labels the
// result (the CLI uses the plan's file name; the server uses "plan").
func RunPlan(name string, p *Plan, cfg Config, verify bool) (RunResult, error) {
	h, err := p.BuildHeap(defaultHeadroom)
	if err != nil {
		return RunResult{}, fmt.Errorf("hwgc: building plan: %w", err)
	}
	res := planResult(p)
	res.Benchmark = name
	if res.Stats, err = collect(h, cfg, verify); err != nil {
		return RunResult{}, fmt.Errorf("hwgc: %s: %w", name, err)
	}
	return res, nil
}

// SweepCores runs the named benchmark once per core count on identically
// built fresh heaps and returns the results in order — the measurement
// underlying the paper's Figures 5/6 and Table I.
func SweepCores(name string, coreCounts []int, scale int, seed int64, cfg Config, verify bool) ([]RunResult, error) {
	out := make([]RunResult, 0, len(coreCounts))
	for _, n := range coreCounts {
		c := cfg
		c.Cores = n
		r, err := RunBenchmark(name, scale, seed, c, verify)
		if err != nil {
			return nil, fmt.Errorf("hwgc: sweep %s at %d cores: %w", name, n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// BaselineResult describes one software-parallel baseline collection.
type BaselineResult = baseline.Result

// SyncCounts tallies the synchronization operations a software collector
// performed — the cost the paper's hardware support removes.
type SyncCounts = baseline.SyncCounts

// Baselines returns the names of the software-parallel baseline collectors
// from the paper's related-work discussion: "finegrained" (the paper's own
// algorithm with software atomics), "chunked" (Imai/Tick), "workpackets"
// (Ossia et al.), "stealing" (Flood et al.) and "taskpush" (Wu/Li).
func Baselines() []string { return baseline.Names() }

// BaselineDescription returns a one-line description of the named baseline.
func BaselineDescription(name string) (string, error) {
	c, err := baseline.ByName(name)
	if err != nil {
		return "", err
	}
	return c.Description(), nil
}

// RunBaseline collects h with the named software-parallel collector using
// the given number of goroutines. Unlike the coprocessor, the chunk/LAB
// based baselines may leave filler objects in tospace; the returned result
// reports those wasted words.
func RunBaseline(name string, h *Heap, workers int) (BaselineResult, error) {
	c, err := baseline.ByName(name)
	if err != nil {
		return BaselineResult{}, err
	}
	return c.Collect(h, workers)
}

// VerifyPreserved checks that a baseline collection preserved the logical
// object graph (without requiring perfect compaction, which the chunk/LAB
// collectors intentionally trade away).
func VerifyPreserved(before *Graph, h *Heap) error {
	return baseline.VerifyPreserved(before, h)
}
