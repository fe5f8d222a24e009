package heap

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hwgc/internal/object"
)

func TestNewHeapLayout(t *testing.T) {
	h := New(100)
	if h.Base(0) != 1 || h.Limit(0) != 101 || h.Base(1) != 101 || h.Limit(1) != 201 {
		t.Fatalf("space layout wrong: %d..%d / %d..%d", h.Base(0), h.Limit(0), h.Base(1), h.Limit(1))
	}
	if h.CurSpace() != 0 || h.OtherSpace() != 1 {
		t.Fatalf("initial spaces wrong")
	}
	if h.AllocPtr() != 1 || h.UsedWords() != 0 || h.FreeWords() != 100 {
		t.Fatalf("initial allocation state wrong")
	}
	if len(h.Mem()) != 201 {
		t.Fatalf("memory size = %d, want 201", len(h.Mem()))
	}
}

func TestAllocInitializesObject(t *testing.T) {
	h := New(100)
	a, err := h.Alloc(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	hd := h.Header(a)
	if hd.Pi != 2 || hd.Delta != 3 || hd.Mark || hd.Gray {
		t.Fatalf("header after alloc: %+v", hd)
	}
	for i := 0; i < 2; i++ {
		if h.Ptr(a, i) != object.NilPtr {
			t.Fatalf("pointer slot %d not nil", i)
		}
	}
	for i := 0; i < 3; i++ {
		if h.Data(a, i) != 0 {
			t.Fatalf("data slot %d not zero", i)
		}
	}
	if h.AllocCount() != 1 {
		t.Fatalf("alloc count = %d", h.AllocCount())
	}
}

func TestAllocUntilFull(t *testing.T) {
	h := New(50)
	n := 0
	for {
		_, err := h.Alloc(1, 2) // 5 words each
		if err != nil {
			if !errors.Is(err, ErrSpaceFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("allocated %d objects in 50 words, want 10", n)
	}
	if h.FreeWords() != 0 {
		t.Fatalf("free words = %d", h.FreeWords())
	}
}

func TestAllocRejectsInvalidShape(t *testing.T) {
	h := New(100)
	if _, err := h.Alloc(object.MaxPi+1, 0); err == nil {
		t.Error("oversized pi accepted")
	}
	if _, err := h.Alloc(0, object.MaxDelta+1); err == nil {
		t.Error("oversized delta accepted")
	}
	if _, err := h.Alloc(-1, 0); err == nil {
		t.Error("negative pi accepted")
	}
}

func TestPtrDataAccessorsBoundsPanic(t *testing.T) {
	h := New(100)
	a, _ := h.Alloc(1, 1)
	for _, fn := range []func(){
		func() { h.SetPtr(a, 1, object.NilPtr) },
		func() { h.SetData(a, 1, 0) },
		func() { h.SetPtr(a, -1, object.NilPtr) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range accessor did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRoots(t *testing.T) {
	h := New(100)
	a, _ := h.Alloc(0, 1)
	i := h.AddRoot(a)
	j := h.AddRoot(object.NilPtr)
	if h.NumRoots() != 2 || h.Root(i) != a || h.Root(j) != object.NilPtr {
		t.Fatalf("root bookkeeping wrong")
	}
	h.SetRoot(j, a)
	if h.Root(j) != a {
		t.Fatalf("SetRoot did not stick")
	}
	h.ClearRoots()
	if h.NumRoots() != 0 {
		t.Fatalf("ClearRoots left %d roots", h.NumRoots())
	}
}

func TestFinishCycleFlipsSpaces(t *testing.T) {
	h := New(100)
	_, _ = h.Alloc(0, 5)
	free := h.Base(1) + 7
	h.FinishCycle(free)
	if h.CurSpace() != 1 || h.AllocPtr() != free {
		t.Fatalf("flip wrong: space %d alloc %d", h.CurSpace(), h.AllocPtr())
	}
	// And back.
	h.FinishCycle(h.Base(0))
	if h.CurSpace() != 0 || h.UsedWords() != 0 {
		t.Fatalf("second flip wrong")
	}
}

func TestFinishCyclePanicsOutsideTospace(t *testing.T) {
	h := New(100)
	defer func() {
		if recover() == nil {
			t.Error("FinishCycle with bad pointer did not panic")
		}
	}()
	h.FinishCycle(h.Limit(1) + 1)
}

func TestObjectsIteration(t *testing.T) {
	h := New(100)
	var want []object.Addr
	for i := 0; i < 5; i++ {
		a, _ := h.Alloc(i%3, i)
		want = append(want, a)
	}
	var got []object.Addr
	h.Objects(0, h.AllocPtr(), func(b object.Addr, _ object.Word) bool {
		got = append(got, b)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d objects, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("object %d at %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	h.Objects(0, h.AllocPtr(), func(object.Addr, object.Word) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop iterated %d", n)
	}
}

func TestCheckIntegrityDetectsCorruption(t *testing.T) {
	build := func() *Heap {
		h := New(100)
		a, _ := h.Alloc(1, 1)
		b, _ := h.Alloc(0, 2)
		h.SetPtr(a, 0, b)
		h.AddRoot(a)
		return h
	}

	if err := build().CheckIntegrity(); err != nil {
		t.Fatalf("clean heap flagged: %v", err)
	}

	h := build()
	h.Mem()[h.Root(0)] = object.Header{Pi: 1, Delta: 1, Mark: true}.Encode()
	if err := h.CheckIntegrity(); err == nil {
		t.Error("mark bit not detected")
	}

	h = build()
	h.Mem()[object.PtrSlot(h.Root(0), 0)] = object.Word(h.Root(0) + 1) // interior pointer
	if err := h.CheckIntegrity(); err == nil {
		t.Error("interior pointer not detected")
	}

	h = build()
	h.SetRoot(0, h.Limit(0)) // root outside space
	if err := h.CheckIntegrity(); err == nil {
		t.Error("wild root not detected")
	}

	h = build()
	h.Mem()[h.Root(0)] = object.Header{Pi: 0, Delta: object.MaxDelta}.Encode() // overruns alloc
	if err := h.CheckIntegrity(); err == nil {
		t.Error("size overrun not detected")
	}
}

// TestCheckIntegrityNamesLowestBadObject: with several bad pointer slots the
// error always names the lowest-addressed offending object, on every call.
func TestCheckIntegrityNamesLowestBadObject(t *testing.T) {
	h := New(100)
	var objs []object.Addr
	for i := 0; i < 6; i++ {
		a, err := h.Alloc(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, a)
		h.AddRoot(a)
	}
	h.Mem()[object.PtrSlot(objs[2], 0)] = object.Word(objs[0] + 1)  // interior pointer
	h.Mem()[object.PtrSlot(objs[4], 0)] = object.Word(h.AllocPtr()) // past alloc
	want := fmt.Sprintf("heap: pointer 0 of object %d refers to %d, not an object base in the current space", objs[2], objs[0]+1)
	for i := 0; i < 50; i++ {
		if err := h.CheckIntegrity(); err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	h := New(100)
	a, _ := h.Alloc(0, 1)
	h.AddRoot(a)
	h.SetData(a, 0, 11)
	c := h.Clone()
	h.SetData(a, 0, 22)
	h.SetRoot(0, object.NilPtr)
	if c.Data(a, 0) != 11 || c.Root(0) != a {
		t.Fatalf("clone shares state with original")
	}
	if c.AllocPtr() != h.AllocPtr() || c.SemiWords() != h.SemiWords() {
		t.Fatalf("clone metadata differs")
	}
}

func TestInSpace(t *testing.T) {
	h := New(100)
	if !h.InSpace(1, 0) || h.InSpace(101, 0) || !h.InSpace(101, 1) || h.InSpace(0, 0) {
		t.Fatalf("InSpace boundaries wrong")
	}
}

func TestStatsAndDump(t *testing.T) {
	h := New(128)
	a, _ := h.Alloc(2, 3)
	b, _ := h.Alloc(0, 10)
	h.SetPtr(a, 0, b)
	h.SetData(a, 0, 0xBEEF)
	h.AddRoot(a)
	h.AddRoot(object.NilPtr)

	s := h.Stats()
	if s.Objects != 2 || s.Words != 7+12 || s.PointerSlots != 2 || s.DataWords != 13 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.LargestObj != 12 || s.Roots != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}

	var sb strings.Builder
	if err := h.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"2 roots", "root[0] = 1", "π=2 δ=3", "0xbeef", "ptr[0] ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
