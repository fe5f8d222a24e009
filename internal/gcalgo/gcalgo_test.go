package gcalgo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hwgc/internal/heap"
	"hwgc/internal/object"
)

// buildDiamondWithCycle builds: root -> a -> {b, c}; b -> d; c -> d; d -> a
// (a cycle through the whole diamond), plus garbage.
func buildDiamondWithCycle(t *testing.T) (*heap.Heap, object.Addr) {
	t.Helper()
	h := heap.New(256)
	alloc := func(pi, delta int) object.Addr {
		a, err := h.Alloc(pi, delta)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := alloc(2, 1)
	garbage := alloc(0, 10)
	b := alloc(1, 1)
	c := alloc(1, 1)
	d := alloc(1, 2)
	_ = garbage
	h.SetPtr(a, 0, b)
	h.SetPtr(a, 1, c)
	h.SetPtr(b, 0, d)
	h.SetPtr(c, 0, d)
	h.SetPtr(d, 0, a) // cycle
	h.SetData(a, 0, 0xA)
	h.SetData(b, 0, 0xB)
	h.SetData(c, 0, 0xC)
	h.SetData(d, 0, 0xD0)
	h.SetData(d, 1, 0xD1)
	h.AddRoot(a)
	h.AddRoot(object.NilPtr)
	h.AddRoot(d) // shared root
	return h, a
}

func TestReferenceCollectorDiamond(t *testing.T) {
	h, _ := buildDiamondWithCycle(t)
	before, err := Snapshot(h)
	if err != nil {
		t.Fatal(err)
	}
	liveObj, liveWords, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if liveObj != 4 {
		t.Fatalf("live objects = %d, want 4 (garbage must not survive)", liveObj)
	}
	wantWords := (2 + 2 + 1) + (2 + 1 + 1) + (2 + 1 + 1) + (2 + 1 + 2)
	if liveWords != wantWords {
		t.Fatalf("live words = %d, want %d", liveWords, wantWords)
	}
	if err := VerifyCollection(before, h); err != nil {
		t.Fatal(err)
	}
	// Compaction: alloc pointer at base + live words.
	if h.UsedWords() != wantWords {
		t.Fatalf("used words after GC = %d, want %d", h.UsedWords(), wantWords)
	}
	// The cycle must still close: root -> a, d -> a.
	a := h.Root(0)
	d := h.Root(2)
	if h.Ptr(d, 0) != a {
		t.Fatalf("cycle broken: d points to %d, a is at %d", h.Ptr(d, 0), a)
	}
}

func TestReferenceCollectorSelfLoopAndEmptyRoots(t *testing.T) {
	h := heap.New(64)
	a, _ := h.Alloc(1, 0)
	h.SetPtr(a, 0, a) // self loop
	h.AddRoot(a)
	before, _ := Snapshot(h)
	if _, _, err := Collect(h); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCollection(before, h); err != nil {
		t.Fatal(err)
	}
	if h.Ptr(h.Root(0), 0) != h.Root(0) {
		t.Fatal("self loop broken")
	}

	// All-nil roots: everything is garbage.
	h2 := heap.New(64)
	_, _ = h2.Alloc(0, 5)
	h2.AddRoot(object.NilPtr)
	if n, w, err := Collect(h2); err != nil || n != 0 || w != 0 {
		t.Fatalf("empty collection: n=%d w=%d err=%v", n, w, err)
	}
}

func TestSnapshotIsCanonical(t *testing.T) {
	// Two heaps holding isomorphic graphs with different allocation orders
	// must produce identical snapshots.
	build := func(order []int) *heap.Heap {
		h := heap.New(128)
		addrs := make([]object.Addr, 3)
		for _, i := range order {
			var err error
			addrs[i], err = h.Alloc(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			h.SetData(addrs[i], 0, object.Word(100+i))
		}
		h.SetPtr(addrs[0], 0, addrs[1])
		h.SetPtr(addrs[1], 0, addrs[2])
		h.AddRoot(addrs[0])
		return h
	}
	g1, err := Snapshot(build([]int{0, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Snapshot(build([]int{2, 0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.Equal(g2); err != nil {
		t.Fatalf("isomorphic graphs not equal: %v", err)
	}
}

func TestSnapshotRejectsWildPointer(t *testing.T) {
	h := heap.New(64)
	a, _ := h.Alloc(1, 0)
	h.AddRoot(a)
	h.Mem()[object.PtrSlot(a, 0)] = object.Word(a + 1) // interior pointer
	if _, err := Snapshot(h); err == nil {
		t.Fatal("wild pointer not detected")
	}
}

func TestVerifyDetectsDataCorruption(t *testing.T) {
	h, _ := buildDiamondWithCycle(t)
	before, _ := Snapshot(h)
	if _, _, err := Collect(h); err != nil {
		t.Fatal(err)
	}
	// Corrupt one data word of the root object.
	h.SetData(h.Root(0), 0, 0xBAD)
	if err := VerifyCollection(before, h); err == nil {
		t.Fatal("data corruption not detected")
	}
}

func TestVerifyDetectsLostObject(t *testing.T) {
	h, _ := buildDiamondWithCycle(t)
	before, _ := Snapshot(h)
	if _, _, err := Collect(h); err != nil {
		t.Fatal(err)
	}
	// Sever an edge: the graph shape changed.
	h.SetPtr(h.Root(0), 1, object.NilPtr)
	if err := VerifyCollection(before, h); err == nil {
		t.Fatal("severed edge not detected")
	}
}

func TestVerifyDetectsImperfectCompaction(t *testing.T) {
	h, _ := buildDiamondWithCycle(t)
	before, _ := Snapshot(h)
	if _, _, err := Collect(h); err != nil {
		t.Fatal(err)
	}
	// Allocate an extra (unreachable but space-consuming) object: the
	// compaction equality must now fail.
	if _, err := h.Alloc(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCollection(before, h); err == nil {
		t.Fatal("imperfect compaction not detected")
	}
}

func TestCollectOverflowDetected(t *testing.T) {
	// Live data barely fits in fromspace... tospace is the same size, so a
	// true overflow needs live > semispace, which Alloc prevents. Instead,
	// corrupt a header to inflate an object's size beyond tospace.
	h := heap.New(32)
	a, _ := h.Alloc(0, 4)
	h.AddRoot(a)
	h.Mem()[a] = object.Header{Pi: 0, Delta: object.MaxDelta}.Encode()
	if _, _, err := Collect(h); err == nil {
		t.Fatal("tospace overflow not detected")
	}
}

// TestCollectEquivalenceQuick: for random graphs, collecting preserves the
// canonical snapshot (testing/quick property).
func TestCollectEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		h, err := randomHeap(rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		before, err := Snapshot(h)
		if err != nil {
			t.Logf("snapshot: %v", err)
			return false
		}
		if _, _, err := Collect(h); err != nil {
			t.Logf("collect: %v", err)
			return false
		}
		if err := VerifyCollection(before, h); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomHeap builds a random cyclic graph of up to 40 objects with random
// data, some nil pointer slots and one to three roots.
func randomHeap(rng *rand.Rand) (*heap.Heap, error) {
	h := heap.New(4096)
	n := 1 + rng.Intn(40)
	addrs := make([]object.Addr, 0, n)
	for i := 0; i < n; i++ {
		a, err := h.Alloc(rng.Intn(4), rng.Intn(6))
		if err != nil {
			return nil, err
		}
		hd := h.Header(a)
		for j := 0; j < hd.Delta; j++ {
			h.SetData(a, j, rng.Uint64())
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		hd := h.Header(a)
		for s := 0; s < hd.Pi; s++ {
			if rng.Intn(4) != 0 {
				h.SetPtr(a, s, addrs[rng.Intn(len(addrs))])
			}
		}
	}
	for r := 0; r < 1+rng.Intn(3); r++ {
		h.AddRoot(addrs[rng.Intn(len(addrs))])
	}
	return h, nil
}
