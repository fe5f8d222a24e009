package machine

import (
	"hwgc/internal/heap"
	"hwgc/internal/object"
)

// churnState is the built-in config-driven churn mutator: a randomized
// pointer-chasing / field-writing / pointer-storing / allocating workload
// over the heap's root set, a generic stand-in for an application running
// while the coprocessor collects. Pointer stores give the write barrier
// something to do, and all of its state sits in plain fields — an explicit
// splitmix64 PRNG — so a machine snapshot can carry it and a restore
// resumes the operation stream bit-identically.
type churnState struct {
	h         *heap.Heap
	rng       uint64
	maxOps    int64
	maxAllocs int64
	allocs    int64
}

func newChurnState(h *heap.Heap, cfg Config) *churnState {
	return &churnState{
		h:         h,
		rng:       uint64(cfg.MutatorSeed),
		maxOps:    cfg.MutatorOps,
		maxAllocs: cfg.MutatorAllocs,
	}
}

// next is splitmix64: a tiny, statistically solid generator whose entire
// state is one uint64 — exactly what the snapshot codec wants.
func (c *churnState) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (c *churnState) intn(n int) int { return int(c.next() % uint64(n)) }

// shape reads an object's static shape (π, δ) through the heap — untimed
// meta-knowledge, like a compiler knowing its types, while every field access
// goes through the timed mutator port. It is safe at any point of the
// collection: the mutator only holds tospace references, and both gray and
// black tospace headers carry the correct π and δ.
func (c *churnState) shape(a object.Addr) (pi, delta int) {
	hd := c.h.Header(a)
	return hd.Pi, hd.Delta
}

// pick returns a register holding an object whose shape satisfies pred.
func (c *churnState) pick(regs []object.Addr, pred func(pi, delta int) bool) (int, bool) {
	start := c.intn(len(regs))
	for k := 0; k < len(regs); k++ {
		r := (start + k) % len(regs)
		if regs[r] == object.NilPtr {
			continue
		}
		if pi, delta := c.shape(regs[r]); pred(pi, delta) {
			return r, true
		}
	}
	return 0, false
}

// drive is the MutDriver. Pointer stores — including nil stores, which
// delete edges and manufacture floating-garbage candidates — make up a
// sizeable share of the mix so the barrier-mode comparison has signal.
func (c *churnState) drive(seq int64, regs []object.Addr, _ object.Word) (MutOp, bool) {
	if seq >= c.maxOps {
		return MutOp{}, false
	}
	for try := 0; try < 16; try++ {
		switch c.intn(10) {
		case 0, 1: // load a root
			return MutOp{
				Kind:    MutLoadRoot,
				Reg:     c.intn(len(regs)),
				RootIdx: c.intn(c.h.NumRoots()),
			}, true
		case 2, 3: // follow a pointer
			r, ok := c.pick(regs, func(pi, _ int) bool { return pi > 0 })
			if !ok {
				continue
			}
			pi, _ := c.shape(regs[r])
			return MutOp{Kind: MutLoadPtr, Reg: r, Reg2: c.intn(len(regs)), Slot: c.intn(pi)}, true
		case 4, 5: // overwrite a pointer field (the write-barrier trigger)
			r, ok := c.pick(regs, func(pi, _ int) bool { return pi > 0 })
			if !ok {
				continue
			}
			pi, _ := c.shape(regs[r])
			return MutOp{Kind: MutStorePtr, Reg: r, Reg2: c.intn(len(regs)), Slot: c.intn(pi)}, true
		case 6: // read a data word
			r, ok := c.pick(regs, func(_, delta int) bool { return delta > 0 })
			if !ok {
				continue
			}
			_, delta := c.shape(regs[r])
			return MutOp{Kind: MutLoadData, Reg: r, Slot: c.intn(delta)}, true
		case 7: // overwrite a data word
			r, ok := c.pick(regs, func(_, delta int) bool { return delta > 0 })
			if !ok {
				continue
			}
			_, delta := c.shape(regs[r])
			return MutOp{Kind: MutStoreData, Reg: r, Slot: c.intn(delta), Data: object.Word(c.next())}, true
		case 8: // publish a register into a root slot
			r, ok := c.pick(regs, func(_, _ int) bool { return true })
			if !ok {
				continue
			}
			return MutOp{Kind: MutStoreRoot, Reg: r, RootIdx: c.intn(c.h.NumRoots())}, true
		default: // allocate a small object and keep it in a register
			if c.allocs >= c.maxAllocs {
				return MutOp{Kind: MutNop}, true
			}
			c.allocs++
			return MutOp{Kind: MutAlloc, Reg: c.intn(len(regs)), Pi: c.intn(3), Delta: c.intn(5)}, true
		}
	}
	return MutOp{Kind: MutNop}, true
}
