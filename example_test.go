package hwgc_test

import (
	"fmt"
	"log"

	"hwgc"
)

// Build a tiny object graph, collect it on a 4-core simulated coprocessor,
// and verify the result against the oracle.
func ExampleCollect() {
	h := hwgc.NewHeap(1024)
	list, _ := h.Alloc(1, 1) // π=1 pointer slot, δ=1 data word
	tail, _ := h.Alloc(0, 1)
	h.SetPtr(list, 0, tail)
	h.SetData(list, 0, 1)
	h.SetData(tail, 0, 2)
	h.AddRoot(list)
	_, _ = h.Alloc(0, 100) // garbage

	before, _ := hwgc.Snapshot(h)
	st, err := hwgc.Collect(h, hwgc.Config{Cores: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := hwgc.Verify(before, h); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d objects survived, garbage reclaimed: %v\n",
		st.LiveObjects, h.UsedWords() < 100)
	// Output:
	// 2 objects survived, garbage reclaimed: true
}

// Sweep a benchmark across the paper's core counts — the Figure 5
// measurement — and print the speedups.
func ExampleSweepCores() {
	res, err := hwgc.SweepCores("search", []int{1, 16}, 1, 42, hwgc.Config{}, true)
	if err != nil {
		log.Fatal(err)
	}
	speedup := float64(res[0].Stats.Cycles) / float64(res[1].Stats.Cycles)
	fmt.Printf("search (a linear graph) speeds up less than 2x at 16 cores: %v\n", speedup < 2)
	// Output:
	// search (a linear graph) speeds up less than 2x at 16 cores: true
}

// Drive a heap through many allocation/collection cycles with automatic
// verified GC.
func ExampleNewMutator() {
	mu, err := hwgc.NewMutator(2048, hwgc.Config{Cores: 4})
	if err != nil {
		log.Fatal(err)
	}
	mu.Verify = true
	rep, err := mu.RunChurn(hwgc.ChurnConfig{Ops: 4000, RootSlots: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collections triggered automatically: %v\n", rep.Collections > 0)
	// Output:
	// collections triggered automatically: true
}

// Run a software-parallel baseline collector (Flood-style work stealing)
// and check it preserved the graph.
func ExampleRunBaseline() {
	h, _ := hwgc.BuildWorkload("jlisp", 1, 7)
	before, _ := hwgc.Snapshot(h)
	res, err := hwgc.RunBaseline("stealing", h, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := hwgc.VerifyPreserved(before, h); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synchronization operations per object > 3: %v\n",
		float64(res.Sync.Total())/float64(res.LiveObjects) > 3)
	// Output:
	// synchronization operations per object > 3: true
}

// Collect concurrently with a running mutator (the paper's §V-B outlook):
// the built-in churn mutator runs on the coprocessor's mutator port, and
// its worst single stall replaces the stop-the-world pause.
func ExampleCollect_concurrent() {
	h, _ := hwgc.BuildWorkload("jlisp", 1, 42)
	st, err := hwgc.Collect(h, hwgc.Config{Cores: 8, MutatorOps: 1 << 40, MutatorAllocs: 50})
	if err != nil {
		log.Fatal(err)
	}
	ms := st.Mutator
	fmt.Printf("mutator kept running during GC: %v, worst stall far below the cycle: %v\n",
		ms.Ops > 0, ms.MaxOpLatency*4 < st.Cycles)
	// Output:
	// mutator kept running during GC: true, worst stall far below the cycle: true
}

// Trace the coprocessor's internal signals while it collects, like the
// prototype's on-chip monitor.
func ExampleCollectTraced() {
	h, _ := hwgc.BuildWorkload("jlisp", 1, 42)
	mon := hwgc.NewMonitor(16, 1<<12)
	if _, err := hwgc.CollectTraced(h, hwgc.Config{Cores: 8}, mon); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled the work list growing and draining: %v\n", mon.MaxGrayWords() > 0)
	// Output:
	// sampled the work list growing and draining: true
}
