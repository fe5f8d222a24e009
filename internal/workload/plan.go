// Package workload generates the synthetic object graphs that stand in for
// the paper's Java benchmarks (compress, cup, db, javac, javacc, jflex,
// jlisp, search).
//
// The original measurements ran Java programs compiled by the authors'
// static compiler on their FPGA prototype. We cannot run those, so each
// benchmark is replaced by a deterministic, seeded graph generator whose
// *shape* reproduces the property the paper attributes to that benchmark:
//
//   - compress, search: highly linear object graphs with (almost) no
//     object-level parallelism (Section VI-B, Table I);
//   - jflex: limited parallelism — long chain with small bushy bursts;
//   - cup: enormous breadth, so the number of simultaneously gray objects
//     overflows the 32k-entry header FIFO (Table II discussion);
//   - javac: a few hub objects referenced by very many objects, causing
//     header-lock contention (Table II discussion);
//   - db, javacc, jlisp: record/tree/cons graphs that parallelize well.
//
// A workload is first constructed as a Plan — a pure-Go description of the
// graph — and then realized into a heap. The plan form also serves the test
// suite, which needs to know the intended graph independently of the heap.
package workload

import (
	"fmt"
	"math/rand"

	"hwgc/internal/heap"
	"hwgc/internal/object"
)

// PlanObj describes one object of a planned graph. Ptrs holds indices into
// the plan's object list, or -1 for nil slots.
type PlanObj struct {
	Pi    int
	Delta int
	Ptrs  []int
	Data  []object.Word
}

// Plan is a complete description of a heap to build: a list of objects (in
// allocation order) and the indices of the objects referenced by the root
// set. Objects that are neither roots nor referenced become garbage — they
// occupy fromspace but must not survive a collection.
type Plan struct {
	Objs  []PlanObj
	Roots []int

	// ptrSlab and dataSlab are the unused tails of the slabs NewObj carves
	// the objects' slot lists from, so a plan is built in a few allocations
	// rather than two per object. The benchmark generators drop them when
	// they finish, so a generated plan holds nothing but Objs and Roots.
	ptrSlab  []int
	dataSlab []object.Word
}

// minSlab is the size, in elements, of the smallest slab NewObj allocates.
// A new slab also holds at least two elements per object already in the
// plan, so the number of slabs grows only logarithmically with the plan.
const minSlab = 1024

// carve returns the next n elements of *slab, first replacing the slab with
// a fresh one of at least grow elements when fewer than n remain. The result
// is capped at n, so appending to it can never overwrite the next object's
// slots, and is non-nil even when n is zero.
func carve[T any](slab *[]T, n, grow int) []T {
	if n == 0 {
		return []T{}
	}
	if len(*slab) < n {
		*slab = make([]T, max(n, grow, minSlab))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// NewObj appends an object with the given shape, all pointer slots nil and
// all data words zero, and returns its index.
func (p *Plan) NewObj(pi, delta int) int {
	ptrs := carve(&p.ptrSlab, pi, 2*len(p.Objs))
	for i := range ptrs {
		ptrs[i] = -1
	}
	p.Objs = append(p.Objs, PlanObj{
		Pi:    pi,
		Delta: delta,
		Ptrs:  ptrs,
		Data:  carve(&p.dataSlab, delta, 2*len(p.Objs)),
	})
	return len(p.Objs) - 1
}

// Link sets pointer slot slot of object from to refer to object to.
func (p *Plan) Link(from, slot, to int) {
	p.Objs[from].Ptrs[slot] = to
}

// AddRoot registers object idx (or -1 for a nil root) in the root set.
func (p *Plan) AddRoot(idx int) {
	p.Roots = append(p.Roots, idx)
}

// FillData fills every data word of every object with seeded random values,
// which maximizes the verification oracle's sensitivity to copy bugs.
func (p *Plan) FillData(rng *rand.Rand) {
	for i := range p.Objs {
		for j := range p.Objs[i].Data {
			p.Objs[i].Data[j] = rng.Uint64()
		}
	}
}

// Words returns the total heap words the plan's objects occupy.
func (p *Plan) Words() int {
	w := 0
	for i := range p.Objs {
		w += object.Size(p.Objs[i].Pi, p.Objs[i].Delta)
	}
	return w
}

// LiveStats returns the number and total words of the objects reachable
// from the plan's roots.
func (p *Plan) LiveStats() (objects, words int) {
	seen := make([]bool, len(p.Objs))
	var stack []int
	for _, r := range p.Roots {
		if r >= 0 && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		objects++
		words += object.Size(p.Objs[i].Pi, p.Objs[i].Delta)
		for _, c := range p.Objs[i].Ptrs {
			if c >= 0 && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return objects, words
}

// Realize allocates the plan's objects into h (in plan order), wires their
// pointer slots and data words, and installs the root set. The heap's
// current space must have room for Words() words. A plan that fails
// Validate is rejected before anything is written: the slot lists are
// copied straight into the heap's words, so a list longer than its declared
// shape would otherwise overwrite the next object.
func (p *Plan) Realize(h *heap.Heap) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return p.realize(h)
}

// realize is Realize for a plan that has passed Validate.
func (p *Plan) realize(h *heap.Heap) error {
	addrs := make([]object.Addr, len(p.Objs))
	for i := range p.Objs {
		o := &p.Objs[i]
		a, err := h.Alloc(o.Pi, o.Delta)
		if err != nil {
			return fmt.Errorf("workload: realizing object %d/%d: %w", i, len(p.Objs), err)
		}
		addrs[i] = a
	}
	words := h.Mem()
	for i := range p.Objs {
		o := &p.Objs[i]
		slots := words[object.PtrSlot(addrs[i], 0):]
		for s, t := range o.Ptrs {
			if t >= 0 {
				slots[s] = object.Word(addrs[t])
			}
		}
		copy(slots[o.Pi:], o.Data)
	}
	h.ClearRoots()
	for _, r := range p.Roots {
		if r < 0 {
			h.AddRoot(object.NilPtr)
		} else {
			h.AddRoot(addrs[r])
		}
	}
	return nil
}

// BuildHeap creates a heap sized for the plan (semispaces hold the plan plus
// headroom) and realizes the plan into it. The paper dimensioned its heaps
// at twice the minimal size; headroom 2.0 reproduces that rule of thumb
// relative to the live set. Like Realize, it rejects a plan that fails
// Validate.
func (p *Plan) BuildHeap(headroom float64) (*heap.Heap, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if headroom < 1.05 {
		headroom = 1.05
	}
	semi := int(float64(p.Words())*headroom) + 64
	h := heap.New(semi)
	if err := p.realize(h); err != nil {
		return nil, err
	}
	return h, nil
}

// sprinkleGarbage appends n unreachable filler objects (π=0, δ=delta) to the
// plan, modelling the dead objects a real mutator leaves in fromspace.
// Copying collectors never touch garbage, so this exercises exactly that
// invariant.
func (p *Plan) sprinkleGarbage(rng *rand.Rand, n, delta int) {
	for i := 0; i < n; i++ {
		p.NewObj(0, 1+rng.Intn(delta))
	}
}
