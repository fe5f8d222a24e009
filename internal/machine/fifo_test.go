package machine

import "testing"

func TestFIFOOrderAndHits(t *testing.T) {
	f := newHeaderFIFO(4, false)
	for i := 1; i <= 3; i++ {
		if f.Push(uint32(i*10), uint64(i)) {
			t.Fatalf("push %d dropped below capacity", i)
		}
	}
	if f.Len() != 3 || f.MaxDepth != 3 {
		t.Fatalf("len=%d maxDepth=%d", f.Len(), f.MaxDepth)
	}
	for i := 1; i <= 3; i++ {
		hdr, ok := f.PopIf(uint32(i * 10))
		if !ok || hdr != uint64(i) {
			t.Fatalf("pop %d: ok=%v hdr=%d", i, ok, hdr)
		}
	}
	if f.Hits != 3 || f.Len() != 0 {
		t.Fatalf("hits=%d len=%d", f.Hits, f.Len())
	}
}

func TestFIFOMismatchIsMiss(t *testing.T) {
	f := newHeaderFIFO(4, false)
	f.Push(10, 1)
	if _, ok := f.PopIf(20); ok {
		t.Fatal("mismatched pop hit")
	}
	if f.Misses != 1 || f.Len() != 1 {
		t.Fatalf("miss not recorded; len=%d", f.Len())
	}
	// The head entry stays for its real consumer.
	if hdr, ok := f.PopIf(10); !ok || hdr != 1 {
		t.Fatal("entry lost after miss")
	}
}

func TestFIFODropOnFull(t *testing.T) {
	f := newHeaderFIFO(2, false)
	f.Push(10, 1)
	f.Push(20, 2)
	if !f.Push(30, 3) {
		t.Fatal("push above capacity not dropped")
	}
	if f.Drops != 1 {
		t.Fatalf("drops=%d", f.Drops)
	}
	// Consumption order: 10 hit, 20 hit, 30 miss (dropped).
	if _, ok := f.PopIf(10); !ok {
		t.Fatal("10 lost")
	}
	if _, ok := f.PopIf(20); !ok {
		t.Fatal("20 lost")
	}
	if _, ok := f.PopIf(30); ok {
		t.Fatal("dropped entry resurfaced")
	}
}

func TestFIFODisabled(t *testing.T) {
	f := newHeaderFIFO(8, true)
	if !f.Push(10, 1) {
		t.Fatal("disabled FIFO accepted a push")
	}
	if _, ok := f.PopIf(10); ok {
		t.Fatal("disabled FIFO produced a hit")
	}
}

func TestFIFOReset(t *testing.T) {
	f := newHeaderFIFO(4, false)
	f.Push(10, 1)
	f.PopIf(99)
	f.Reset()
	if f.Len() != 0 || f.Hits != 0 || f.Misses != 0 || f.Drops != 0 || f.MaxDepth != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestFIFOStorageReclaim(t *testing.T) {
	f := newHeaderFIFO(1024, false)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			f.Push(uint32(1000*round+i), 1)
		}
		for i := 0; i < 100; i++ {
			if _, ok := f.PopIf(uint32(1000*round + i)); !ok {
				t.Fatal("lost entry")
			}
		}
		// A drained ring restarts at its front and keeps its storage,
		// which is twice the deepest occupancy at most.
		if f.Len() != 0 || f.head != 0 || len(f.Entries) > 2*100 {
			t.Fatalf("storage not reclaimed after drain: len=%d head=%d ring=%d", f.Len(), f.head, len(f.Entries))
		}
	}
}

// TestFIFORingWrapsInOrder: interleaved pushes and pops wrap the ring many
// times, and growth while wrapped keeps FIFO order; the ring never exceeds
// the capacity, even when pushes overflow it.
func TestFIFORingWrapsInOrder(t *testing.T) {
	const capacity = 200
	f := newHeaderFIFO(capacity, false)
	var want []uint32 // the buffered addresses, head first
	next := uint32(1)
	for step := 0; step < 20000; step++ {
		// Bursts of up to 7 pushes against up to 5 pops grow the ring to
		// its capacity and then overflow it.
		for i := 0; i < step%8; i++ {
			dropped := f.Push(next, uint64(next)*3)
			if dropped != (len(want) >= capacity) {
				t.Fatalf("step %d: push dropped=%v at occupancy %d", step, dropped, len(want))
			}
			if !dropped {
				want = append(want, next)
			}
			next++
		}
		for i := 0; i < step%6 && len(want) > 0; i++ {
			hdr, ok := f.PopIf(want[0])
			if !ok || hdr != uint64(want[0])*3 {
				t.Fatalf("step %d: pop %d: ok=%v hdr=%d", step, want[0], ok, hdr)
			}
			want = want[1:]
		}
		if f.Len() != len(want) || len(f.Entries) > capacity {
			t.Fatalf("step %d: len %d want %d, ring %d", step, f.Len(), len(want), len(f.Entries))
		}
	}
	if f.Drops == 0 || f.MaxDepth != capacity {
		t.Fatalf("drops=%d maxDepth=%d: the FIFO never filled", f.Drops, f.MaxDepth)
	}
}
