// Concurrent: the paper's Section V-B outlook, runnable — the coprocessor
// collects while the application keeps executing on the machine's mutator
// port, under a wait-until-black access barrier.
//
// The example collects the same heap twice: once stop-the-world (the
// application pauses for the whole cycle) and once concurrently (the
// application's worst pause is its longest single stalled operation), and
// prints both. The concurrent run is an ordinary Collect with the built-in
// churn mutator switched on through Config.MutatorOps.
//
// Run with:
//
//	go run ./examples/concurrent [-bench jlisp] [-cores 8] [-period 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"hwgc"
)

func main() {
	bench := flag.String("bench", "jlisp", "workload ("+strings.Join(hwgc.Workloads(), ", ")+")")
	cores := flag.Int("cores", 8, "GC coprocessor cores")
	period := flag.Int("period", 4, "cycles between mutator operations")
	flag.Parse()

	// Stop-the-world run.
	h1, err := hwgc.BuildWorkload(*bench, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	stw, err := hwgc.Collect(h1, hwgc.Config{Cores: *cores})
	if err != nil {
		log.Fatal(err)
	}

	// Concurrent run on an identical heap: the built-in churn mutator chases
	// pointers, reads and writes fields, stores pointers and allocates, one
	// operation every -period cycles, for the whole collection.
	h2, err := hwgc.BuildWorkload(*bench, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	st, err := hwgc.Collect(h2, hwgc.Config{Cores: *cores, MutatorOps: 1 << 40, MutatorPeriod: *period})
	if err != nil {
		log.Fatal(err)
	}
	ms := st.Mutator

	fmt.Printf("workload %s, %d GC cores\n\n", *bench, *cores)
	fmt.Printf("stop-the-world:  collection %8d cycles — the application pauses for all of them\n", stw.Cycles)
	fmt.Printf("concurrent:      collection %8d cycles (+%.2f%%), application kept running:\n",
		st.Cycles, 100*float64(st.Cycles-stw.Cycles)/float64(stw.Cycles))
	fmt.Printf("  %d operations completed, %d objects allocated mid-collection\n", ms.Ops, ms.Allocs)
	fmt.Printf("  worst single operation: %d cycles  (the concurrent 'pause')\n", ms.MaxOpLatency)
	fmt.Printf("  stalls: %d cycles total, %d waiting for gray objects, %d on the free lock\n",
		ms.StallCycles, ms.BarrierStalls, ms.AllocLock)
	fmt.Printf("  scanners stepped over %d black-at-birth frames\n\n", ms.FramesSkipped)
	fmt.Printf("pause reduction: %.0fx (%d -> %d cycles)\n",
		float64(stw.Cycles)/float64(ms.MaxOpLatency), stw.Cycles, ms.MaxOpLatency)
}
