package machine

import (
	"runtime"
	"testing"
)

// TestCollectWorkingSet: a collect's simulator state scales with what is in
// flight, not with the heap. Building the machine and collecting javac at
// scale 4 allocates under 5% of the heap's bytes, flat and under the cache
// model, whose comparator counters and FIFO ring are bounded by constants
// of the configuration rather than by the heap's length.
func TestCollectWorkingSet(t *testing.T) {
	for _, cfg := range []Config{{Cores: 8}, {Cores: 8, L1Sets: 16}} {
		h := buildBench(t, "javac", 4)
		heapBytes := uint64(len(h.Mem())) * 8
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Collect(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("L1Sets=%d: New+Collect allocated %d B, heap %d B (%.2f%%)",
			cfg.L1Sets, alloc, heapBytes, 100*float64(alloc)/float64(heapBytes))
		if alloc*20 >= heapBytes {
			t.Errorf("L1Sets=%d: New+Collect allocated %d B, not under 5%% of the heap's %d B",
				cfg.L1Sets, alloc, heapBytes)
		}
	}
}

// TestFIFORingBoundedOnOverflow: cup's gray objects outnumber the header
// FIFO, so a collect pushes far more headers than the FIFO holds; the ring's
// backing array still stays within the FIFO's capacity.
func TestFIFORingBoundedOnOverflow(t *testing.T) {
	h := buildBench(t, "cup", 1)
	m, err := New(h, Config{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	capacity := m.Config().FIFOCapacity
	if st.FIFODrops == 0 {
		t.Fatalf("cup did not overflow the %d-entry FIFO", capacity)
	}
	if n := len(m.fifo.Entries); n > capacity {
		t.Fatalf("FIFO ring holds %d entries after %d drops, capacity %d", n, st.FIFODrops, capacity)
	}
}
