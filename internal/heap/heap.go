// Package heap implements the semispace heap of Cheney-style copying
// collectors (paper Section II).
//
// The heap is divided into two equally sized semispaces. The mutator bump-
// allocates objects in the current space; when the space fills up, a
// collection cycle flips the roles of the spaces and copies all objects
// reachable from the root set into the other space, compacting them at its
// bottom. The root set models the main processor's registers and stacks.
//
// The heap operates on the same word array that the simulated memory model
// schedules accesses to; the mutator and the verification oracle access it
// directly (untimed), while the coprocessor goes through internal/mem.
package heap

import (
	"errors"
	"fmt"

	"hwgc/internal/object"
)

// ErrSpaceFull is returned by Alloc when the current semispace cannot hold
// the requested object; the caller is expected to trigger a GC cycle.
var ErrSpaceFull = errors.New("heap: semispace full")

// Heap is a two-semispace object heap over a flat word array. Word 0 of the
// array is reserved so that address 0 can serve as the nil pointer.
type Heap struct {
	mem      []object.Word
	semi     int // words per semispace
	cur      int // index (0/1) of the space the mutator allocates in
	alloc    object.Addr
	roots    []object.Addr
	allocCnt int64
}

// New creates a heap with two semispaces of semiWords words each.
func New(semiWords int) *Heap {
	if semiWords < object.HeaderWords+1 {
		panic("heap: semispace too small")
	}
	h := &Heap{
		mem:  make([]object.Word, 1+2*semiWords),
		semi: semiWords,
	}
	h.alloc = h.Base(0)
	return h
}

// Mem exposes the backing word array (shared with the memory model).
func (h *Heap) Mem() []object.Word { return h.mem }

// SemiWords returns the size of one semispace in words.
func (h *Heap) SemiWords() int { return h.semi }

// Base returns the base address of semispace s (0 or 1).
func (h *Heap) Base(s int) object.Addr {
	if s == 0 {
		return 1
	}
	return 1 + object.Addr(h.semi)
}

// Limit returns the first address past semispace s.
func (h *Heap) Limit(s int) object.Addr { return h.Base(s) + object.Addr(h.semi) }

// CurSpace returns the index of the space the mutator allocates in.
func (h *Heap) CurSpace() int { return h.cur }

// OtherSpace returns the index of the space a collection would copy into.
func (h *Heap) OtherSpace() int { return 1 - h.cur }

// AllocPtr returns the current bump-allocation pointer.
func (h *Heap) AllocPtr() object.Addr { return h.alloc }

// UsedWords returns the number of words allocated in the current space.
func (h *Heap) UsedWords() int { return int(h.alloc - h.Base(h.cur)) }

// FreeWords returns the words remaining in the current space.
func (h *Heap) FreeWords() int { return h.semi - h.UsedWords() }

// AllocCount returns the total number of objects allocated since creation.
func (h *Heap) AllocCount() int64 { return h.allocCnt }

// InSpace reports whether a is a valid object address inside space s.
func (h *Heap) InSpace(a object.Addr, s int) bool {
	return a >= h.Base(s) && a < h.Limit(s)
}

// Alloc allocates an object with pi pointer slots (initialized to nil) and
// delta data words (initialized to zero) in the current space and writes its
// header. It returns ErrSpaceFull when the object does not fit.
func (h *Heap) Alloc(pi, delta int) (object.Addr, error) {
	if pi < 0 || pi > object.MaxPi || delta < 0 || delta > object.MaxDelta {
		return object.NilPtr, fmt.Errorf("heap: invalid object shape π=%d δ=%d", pi, delta)
	}
	size := object.Size(pi, delta)
	if int(h.alloc)+size > int(h.Limit(h.cur)) {
		return object.NilPtr, ErrSpaceFull
	}
	base := h.alloc
	h.alloc += object.Addr(size)
	h.mem[base] = object.Header{Pi: pi, Delta: delta}.Encode()
	h.mem[base+1] = 0
	for i := 0; i < pi+delta; i++ {
		h.mem[base+object.HeaderWords+object.Addr(i)] = 0
	}
	h.allocCnt++
	return base, nil
}

// HeaderWord returns header word 0 of the object at base.
func (h *Heap) HeaderWord(base object.Addr) object.Word { return h.mem[base] }

// Header returns the decoded header of the object at base.
func (h *Heap) Header(base object.Addr) object.Header { return object.Decode(h.mem[base]) }

// SetPtr stores a reference into pointer slot i of the object at base.
func (h *Heap) SetPtr(base object.Addr, i int, target object.Addr) {
	hd := object.Decode(h.mem[base])
	if i < 0 || i >= hd.Pi {
		panic(fmt.Sprintf("heap: pointer slot %d out of range (π=%d)", i, hd.Pi))
	}
	h.mem[object.PtrSlot(base, i)] = object.Word(target)
}

// Ptr loads pointer slot i of the object at base.
func (h *Heap) Ptr(base object.Addr, i int) object.Addr {
	return object.Addr(h.mem[object.PtrSlot(base, i)])
}

// SetData stores a data word into data slot i of the object at base.
func (h *Heap) SetData(base object.Addr, i int, w object.Word) {
	hd := object.Decode(h.mem[base])
	if i < 0 || i >= hd.Delta {
		panic(fmt.Sprintf("heap: data slot %d out of range (δ=%d)", i, hd.Delta))
	}
	h.mem[object.DataSlot(base, hd.Pi, i)] = w
}

// Data loads data word i of the object at base.
func (h *Heap) Data(base object.Addr, i int) object.Word {
	hd := object.Decode(h.mem[base])
	return h.mem[object.DataSlot(base, hd.Pi, i)]
}

// Roots returns the root set (aliased, not copied).
func (h *Heap) Roots() []object.Addr { return h.roots }

// NumRoots returns the number of root slots.
func (h *Heap) NumRoots() int { return len(h.roots) }

// AddRoot appends a root slot referring to target and returns its index.
func (h *Heap) AddRoot(target object.Addr) int {
	h.roots = append(h.roots, target)
	return len(h.roots) - 1
}

// Root returns the value of root slot i.
func (h *Heap) Root(i int) object.Addr { return h.roots[i] }

// SetRoot overwrites root slot i.
func (h *Heap) SetRoot(i int, target object.Addr) { h.roots[i] = target }

// ClearRoots empties the root set.
func (h *Heap) ClearRoots() { h.roots = h.roots[:0] }

// FinishCycle completes a collection cycle: the space the collector copied
// into becomes the current space and the allocation pointer is set to the
// collector's final free pointer. The collector has already rewritten the
// root slots to point into the new space.
func (h *Heap) FinishCycle(finalFree object.Addr) {
	to := h.OtherSpace()
	if finalFree < h.Base(to) || finalFree > h.Limit(to) {
		panic(fmt.Sprintf("heap: final free pointer %d outside tospace", finalFree))
	}
	h.cur = to
	h.alloc = finalFree
}

// Objects iterates over the contiguously allocated objects of space s, from
// its base up to limit, invoking fn with each object's base address and
// header word. Iteration stops early if fn returns false or a header is
// implausible (size 2 with no body is allowed; a zero header terminates).
func (h *Heap) Objects(s int, limit object.Addr, fn func(base object.Addr, hdr object.Word) bool) {
	a := h.Base(s)
	for a < limit {
		w := h.mem[a]
		if !fn(a, w) {
			return
		}
		a += object.Addr(object.SizeWords(w))
	}
}

// Clone returns a deep copy of the heap (memory, roots, space state). The
// verification oracle collects on a clone and compares outcomes.
func (h *Heap) Clone() *Heap {
	c := &Heap{
		mem:      append([]object.Word(nil), h.mem...),
		semi:     h.semi,
		cur:      h.cur,
		alloc:    h.alloc,
		roots:    append([]object.Addr(nil), h.roots...),
		allocCnt: h.allocCnt,
	}
	return c
}

// CheckIntegrity validates the structural invariants of the current space:
// objects tile it exactly from base to the allocation pointer, headers carry
// no mark or gray bits, and every pointer slot and root refers to nil or to
// an object base inside the current space. Header word 1 is reserved; the
// mutator zeroes it at allocation but collectors are not required to rewrite
// it, so it is not checked. Roots are checked in order, then pointer slots in
// address order, so the error always names the first violation.
func (h *Heap) CheckIntegrity() error {
	base := h.Base(h.cur)
	// isBase is a bitset over [base, alloc) marking the object bases.
	isBase := make([]uint64, (h.alloc-base+63)/64)
	a := base
	for a < h.alloc {
		w := h.mem[a]
		if object.Marked(w) || object.GrayBit(w) {
			return fmt.Errorf("heap: object at %d has GC bits set (%+v)", a, object.Decode(w))
		}
		isBase[(a-base)/64] |= 1 << ((a - base) % 64)
		next := a + object.Addr(object.SizeWords(w))
		if next > h.alloc {
			return fmt.Errorf("heap: object at %d (size %d) overruns alloc pointer %d", a, object.SizeWords(w), h.alloc)
		}
		a = next
	}
	if a != h.alloc {
		return fmt.Errorf("heap: objects end at %d, alloc pointer at %d", a, h.alloc)
	}
	valid := func(p object.Addr) bool {
		return p == object.NilPtr ||
			p >= base && p < h.alloc && isBase[(p-base)/64]&(1<<((p-base)%64)) != 0
	}
	const notBase = "heap: %s refers to %d, not an object base in the current space"
	for i, r := range h.roots {
		if !valid(r) {
			return fmt.Errorf(notBase, fmt.Sprintf("root %d", i), r)
		}
	}
	for b := base; b < h.alloc; b += object.Addr(object.SizeWords(h.mem[b])) {
		for i := 0; i < object.Pi(h.mem[b]); i++ {
			if p := h.Ptr(b, i); !valid(p) {
				return fmt.Errorf(notBase, fmt.Sprintf("pointer %d of object %d", i, b), p)
			}
		}
	}
	return nil
}
