package machine

import (
	"fmt"
	"strings"
	"testing"

	"hwgc/internal/heap"
	"hwgc/internal/workload"
)

// probeRecorder samples machine-internal signals every cycle through an
// AddProbe hook, like the prototype's 32-signal tracer.
type probeRecorder struct {
	scanOwnerCycles   int64 // cycles the scan lock was held by someone
	freeOwnerCycles   int64
	maxFreeHoldStreak int64
	curFreeStreak     int64
	states            []string // compact per-cycle core state lines
	keepStates        bool
}

func (p *probeRecorder) attach(m *Machine) {
	m.AddProbe(func(cycle int64, m *Machine) {
		sb := m.SB()
		if sb.ScanOwner() >= 0 {
			p.scanOwnerCycles++
		}
		if sb.FreeOwner() >= 0 {
			p.freeOwnerCycles++
			p.curFreeStreak++
			if p.curFreeStreak > p.maxFreeHoldStreak {
				p.maxFreeHoldStreak = p.curFreeStreak
			}
		} else {
			p.curFreeStreak = 0
		}
		if p.keepStates {
			var b strings.Builder
			fmt.Fprintf(&b, "%d:", cycle)
			for i := 0; i < sb.Cores(); i++ {
				b.WriteByte(' ')
				b.WriteString(m.CoreState(i))
			}
			fmt.Fprintf(&b, " scan=%d free=%d", sb.Scan(), sb.Free())
			p.states = append(p.states, b.String())
		}
	})
}

// TestFreeLockHeldOneCycle pins the evacuation path's timing: the free lock
// is acquired and released within a single cycle in the uncontended case
// (the reordering documented in core.go that keeps the paper's free-lock
// stalls negligible).
func TestFreeLockHeldOneCycle(t *testing.T) {
	spec, _ := workload.Get("jlisp")
	h, err := spec.Plan(1, 3).BuildHeap(2.0)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(h, Config{Cores: 1})
	rec := &probeRecorder{}
	rec.attach(m)
	if _, err := m.Collect(); err != nil {
		t.Fatal(err)
	}
	// With a single core there is no contention, so the free lock must
	// never be observed held across a cycle boundary. The probe runs after
	// each full cycle; a lock acquired and released within one core step is
	// invisible to it.
	if rec.freeOwnerCycles != 0 {
		t.Errorf("free lock observed held across %d cycle boundaries (max streak %d); "+
			"evacuation must hold it within one step", rec.freeOwnerCycles, rec.maxFreeHoldStreak)
	}
}

// TestScanLockHeldAcrossFIFOMiss pins the cup mechanism: with the FIFO
// disabled, the scan lock is held across the gray-header memory load, which
// is precisely what makes FIFO overflow expensive.
func TestScanLockHeldAcrossFIFOMiss(t *testing.T) {
	spec, _ := workload.Get("jlisp")

	run := func(disableFIFO bool) int64 {
		h, err := spec.Plan(1, 3).BuildHeap(2.0)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := New(h, Config{Cores: 1, DisableFIFO: disableFIFO})
		rec := &probeRecorder{}
		rec.attach(m)
		if _, err := m.Collect(); err != nil {
			t.Fatal(err)
		}
		return rec.scanOwnerCycles
	}

	withFIFO := run(false)
	withoutFIFO := run(true)
	if withFIFO != 0 {
		t.Errorf("with FIFO hits, the scan critical section must complete within one step; observed %d held cycles", withFIFO)
	}
	if withoutFIFO == 0 {
		t.Error("without the FIFO, the scan lock must be held across header loads; observed none")
	}
}

// TestGoldenTinyCollection pins the cycle-exact behavior of a minimal
// collection: a single object, a single core, default memory parameters.
// If this test fails after a model change, the change altered simulated
// timing — update the golden values deliberately.
func TestGoldenTinyCollection(t *testing.T) {
	h := heap.New(64)
	a, _ := h.Alloc(0, 2) // one object: π=0, δ=2, size 4
	h.SetData(a, 0, 7)
	h.AddRoot(a)
	m, _ := New(h, Config{Cores: 1, StartupCycles: -1, ShutdownCycles: -1})
	st, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// The exact count documents the model: root evacuation (header load,
	// free-lock cycle, two header stores), one scan-loop iteration (FIFO
	// hit, two data words through 1-deep buffers at latency 3), blacken,
	// termination detection and the final buffer drain.
	const goldenCycles = 20
	if st.Cycles != goldenCycles {
		t.Errorf("tiny collection took %d cycles, golden value %d — timing model changed",
			st.Cycles, goldenCycles)
	}
	if st.LiveObjects != 1 || st.LiveWords != 4 {
		t.Errorf("outcome wrong: %+v", st)
	}
	sum := st.Sum()
	if sum.FIFOHits != 1 || sum.FIFOMisses != 0 {
		t.Errorf("FIFO behaviour changed: %+v", sum)
	}
}

// TestStateTraceShape smoke-checks the per-cycle state tracer used above.
func TestStateTraceShape(t *testing.T) {
	spec, _ := workload.Get("jlisp")
	h, _ := spec.Plan(1, 3).BuildHeap(2.0)
	m, _ := New(h, Config{Cores: 2})
	rec := &probeRecorder{keepStates: true}
	rec.attach(m)
	if _, err := m.Collect(); err != nil {
		t.Fatal(err)
	}
	if len(rec.states) == 0 {
		t.Fatal("no states recorded")
	}
	joined := strings.Join(rec.states, "\n")
	for _, want := range []string{"roots", "grab-scan", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("state trace never showed %q", want)
		}
	}
}
