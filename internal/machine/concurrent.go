package machine

import (
	"fmt"

	"hwgc/internal/mem"
	"hwgc/internal/object"
)

// Concurrent collection — the paper's stated next step (Section V-B: "as a
// next step, we intend to allow the multi-core coprocessor to run
// concurrently to the main processor"), built from the pieces this paper
// already provides. The design follows from three observations:
//
//  1. The scanning cores rewrite every pointer slot of an object before
//     blackening it, so a *black* tospace object contains only tospace
//     pointers. A mutator that (a) starts the cycle with forwarded roots
//     and (b) never reads a field of a non-black object can therefore never
//     acquire a fromspace reference — Baker's invariant holds with a
//     *wait-until-black* access barrier instead of a forwarding read
//     barrier (this is what the authors' prior hardware-read-barrier work
//     provides in silicon).
//
//  2. Objects the mutator allocates during the cycle have no fromspace
//     original and hold only tospace pointers, so they are *black at
//     birth*: the frame is published with a plain (non-gray) header and the
//     scanning cores simply step over it when the scan pointer reaches it.
//
//  3. Allocation contends for the free pointer exactly like evacuation, so
//     the mutator port participates in the synchronization block's free
//     lock like a seventeenth core.
//
// The mutator is modelled as one more cycle-stepped port (registers for the
// object references it holds, one operation in flight, the same four memory
// ports as a GC core) driven by a deterministic MutDriver. Its observable
// cost — the longest time any single operation stalls — is the concurrent
// analogue of the stop-the-world pause.

// MutKind enumerates the mutator operations.
type MutKind int

const (
	// MutNop idles for one period.
	MutNop MutKind = iota
	// MutLoadRoot loads a root slot into a register: regs[Reg] = roots[RootIdx].
	MutLoadRoot
	// MutStoreRoot stores a register into a root slot: roots[RootIdx] = regs[Reg].
	MutStoreRoot
	// MutLoadPtr loads a pointer field: regs[Reg2] = regs[Reg].ptr[Slot].
	MutLoadPtr
	// MutStorePtr stores a pointer field: regs[Reg].ptr[Slot] = regs[Reg2].
	MutStorePtr
	// MutLoadData loads a data word into the data register: data = regs[Reg].data[Slot].
	MutLoadData
	// MutStoreData stores Data into a data word: regs[Reg].data[Slot] = Data.
	MutStoreData
	// MutAlloc allocates a zero-initialized object: regs[Reg] = new(π=Pi, δ=Delta).
	MutAlloc
)

// MutOp is one mutator operation.
type MutOp struct {
	Kind    MutKind
	Reg     int // target object register
	Reg2    int // second register (value for MutStorePtr, result for MutLoadPtr)
	Slot    int
	RootIdx int
	Pi      int
	Delta   int
	Data    object.Word
}

// MutDriver produces the mutator's operation stream. It is called once per
// completed operation with the operation sequence number, a read-only view
// of the register file, and the last MutLoadData result; returning ok=false
// stops the mutator. The driver is the "program" of the main processor:
// like a compiler, it may know the static shapes of the objects it
// manipulates, but every heap access it wants timed must go through the
// returned operations.
type MutDriver func(seq int64, regs []object.Addr, lastData object.Word) (MutOp, bool)

// MutatorRegisters is the size of the mutator port's register file.
const MutatorRegisters = 16

// MutatorStats reports the concurrent mutator's progress and costs.
type MutatorStats struct {
	Ops           int64 // operations completed
	Allocs        int64 // objects allocated concurrently
	StallCycles   int64 // cycles an operation was waiting beyond its own work
	MaxOpLatency  int64 // the longest single operation, in cycles — the "pause" analogue
	BarrierStalls int64 // cycles stalled waiting for a gray object to blacken
	AllocLock     int64 // cycles stalled on the free lock
	FramesSkipped int64 // black-at-birth frames the scanning cores stepped over

	// Write-barrier counters (zero under BarrierNone). The new fields carry
	// omitempty-compatible zero values, so stop-the-world responses encoded
	// before they existed still decode into an identical struct.
	PtrStores          int64 // pointer stores executed (the barrier's trigger)
	BarrierInvocations int64 // write-barrier activations (SATB/inc-update)
	BarrierCycles      int64 // cycles spent inside the write barrier's micro-states
	ShadedObjects      int64 // objects shaded (retained) by the write barrier
	FloatingObjects    int64 // shaded objects unreachable at collection end
	FloatingWords      int64 // their words — garbage the barrier floated into tospace
	MarkTermCycles     int64 // cycles between the last marking work and termination
}

// mutState is an alias of int so that the live register is MutState.St
// itself.
type mutState = int

const (
	muWait mutState = iota // inter-operation period
	muFetch
	muHdrIssue // access barrier: load the target's header
	muHdrWait
	muBarrier // target gray: re-poll until black
	muBodyIssue
	muBodyWait
	muBodyStore
	muAllocLock
	muAllocHdr
	muAllocInit
	muDone
	// Write-barrier micro-states (appended so snapshot state codes of older
	// versions stay stable).
	muOldIssue   // SATB: load the pointer slot's old value
	muOldWait    // SATB: waiting for the old value
	muShadeIssue // shade a target: header load of the retained object
	muShadeWait  // waiting for the shade's header load
)

// mutCore is the mutator port. Its registers are its MutState, except the
// three churn and termination fields at the end of MutState: the churn
// driver and the Machine own those, the live copies stay zero, and Snapshot
// fills them in.
type mutCore struct {
	MutState
	m      *Machine
	id     int // memory port / free-lock identity (== cfg.Cores)
	driver MutDriver
	period int

	// shadedSet indexes Shaded; RestoreMachine rebuilds it.
	shadedSet map[object.Addr]bool

	// churn is non-nil for the built-in config-driven mutator; its PRNG
	// state is part of the machine snapshot.
	churn *churnState
}

// MutState is the register file, micro-state, write-barrier state and churn
// PRNG of the built-in concurrent mutator.
type MutState struct {
	Regs     []object.Addr
	LastData object.Word
	St       mutState
	Op       MutOp
	Seq      int64
	WaitLeft int
	OpStart  int64

	AllocBase object.Addr
	InitIdx   int

	// Write-barrier state: the object currently being shaded, and the
	// objects the barrier has retained this cycle, in shading order.
	ShadeTarget object.Addr
	Shaded      []object.Addr

	Stats MutatorStats

	ChurnRng    uint64
	ChurnAllocs int64
	LastWork    int64
}

func newMutCore(m *Machine, driver MutDriver, period int) *mutCore {
	if period < 1 {
		period = 1
	}
	return &mutCore{
		MutState: MutState{Regs: make([]object.Addr, MutatorRegisters), St: muWait},
		m:        m,
		id:       m.cfg.Cores,
		driver:   driver,
		period:   period,
	}
}

// idle reports whether the mutator has no operation in flight.
func (u *mutCore) idle() bool { return u.St == muWait || u.St == muDone }

// fail aborts the collection with a mutator-side error.
func (u *mutCore) fail(format string, args ...any) {
	u.m.failf("machine: concurrent mutator: "+format, args...)
	u.St = muDone
}

// step advances the mutator port by one clock cycle. draining suppresses
// fetching new operations (the collection is finishing).
func (u *mutCore) step(draining bool) {
	switch u.St {
	case muOldIssue, muOldWait, muShadeIssue, muShadeWait:
		u.Stats.BarrierCycles++
	}
	switch u.St {
	case muDone:
		return

	case muWait:
		if draining {
			return
		}
		u.WaitLeft--
		if u.WaitLeft <= 0 {
			u.fetch()
		}

	case muFetch:
		u.fetch()

	case muHdrIssue:
		u.issueBarrierHdr()

	case muHdrWait:
		if !u.m.mem.LoadReady(u.id, mem.HeaderLoad) {
			u.Stats.StallCycles++
			return
		}
		hdr := u.m.mem.TakeLoad(u.id, mem.HeaderLoad)
		if object.GrayBit(hdr) {
			// Under copy by a scanning core: wait until black. Re-polling
			// costs a fresh header load each time, as it would on the bus.
			u.Stats.BarrierStalls++
			u.Stats.StallCycles++
			u.St = muBarrier
			return
		}
		u.execute()

	case muBarrier:
		u.Stats.BarrierStalls++
		u.Stats.StallCycles++
		u.issueBarrierHdr()

	case muBodyIssue:
		u.issueBodyLoad()

	case muBodyWait:
		if !u.m.mem.LoadReady(u.id, mem.BodyLoad) {
			u.Stats.StallCycles++
			return
		}
		w := u.m.mem.TakeLoad(u.id, mem.BodyLoad)
		if u.Op.Kind == MutLoadPtr {
			u.Regs[u.Op.Reg2] = object.Addr(w)
		} else {
			u.LastData = w
		}
		u.complete()

	case muBodyStore:
		u.issueBodyStore()

	case muOldIssue:
		u.issueOldLoad()

	case muOldWait:
		if !u.m.mem.LoadReady(u.id, mem.BodyLoad) {
			u.Stats.StallCycles++
			return
		}
		old := object.Addr(u.m.mem.TakeLoad(u.id, mem.BodyLoad))
		if old == object.NilPtr {
			u.issueBodyStore()
			return
		}
		u.shade(old)

	case muShadeIssue:
		u.shade(u.ShadeTarget)

	case muShadeWait:
		if !u.m.mem.LoadReady(u.id, mem.HeaderLoad) {
			u.Stats.StallCycles++
			return
		}
		u.m.mem.TakeLoad(u.id, mem.HeaderLoad)
		u.issueBodyStore()

	case muAllocLock:
		u.tryAllocLock()

	case muAllocHdr:
		u.issueAllocHdr()

	case muAllocInit:
		u.allocInit()
	}
}

// fetch asks the driver for the next operation and starts it.
func (u *mutCore) fetch() {
	op, ok := u.driver(u.Seq, u.Regs, u.LastData)
	if !ok {
		u.St = muDone
		return
	}
	u.Op = op
	u.Seq++
	u.OpStart = u.m.cycle
	switch op.Kind {
	case MutNop:
		u.complete()
	case MutLoadRoot:
		if err := u.checkReg(op.Reg); err != nil || !u.checkRoot(op.RootIdx) {
			return
		}
		u.Regs[op.Reg] = u.m.heap.Root(op.RootIdx)
		u.complete()
	case MutStoreRoot:
		if err := u.checkReg(op.Reg); err != nil || !u.checkRoot(op.RootIdx) {
			return
		}
		u.m.heap.SetRoot(op.RootIdx, u.Regs[op.Reg])
		u.complete()
	case MutLoadPtr, MutStorePtr, MutLoadData, MutStoreData:
		if err := u.checkReg(op.Reg); err != nil {
			return
		}
		if op.Kind == MutLoadPtr || op.Kind == MutStorePtr {
			if err := u.checkReg(op.Reg2); err != nil {
				return
			}
		}
		if u.Regs[op.Reg] == object.NilPtr {
			u.fail("op %d dereferences nil register %d", u.Seq-1, op.Reg)
			return
		}
		u.issueBarrierHdr()
	case MutAlloc:
		if err := u.checkReg(op.Reg); err != nil {
			return
		}
		if op.Pi < 0 || op.Pi > object.MaxPi || op.Delta < 0 || op.Delta > object.MaxDelta {
			u.fail("op %d allocates invalid shape π=%d δ=%d", u.Seq-1, op.Pi, op.Delta)
			return
		}
		u.tryAllocLock()
	default:
		u.fail("op %d has unknown kind %d", u.Seq-1, op.Kind)
	}
}

func (u *mutCore) checkReg(r int) error {
	if r < 0 || r >= len(u.Regs) {
		u.fail("register %d out of range", r)
		return fmt.Errorf("bad register")
	}
	return nil
}

func (u *mutCore) checkRoot(i int) bool {
	if i < 0 || i >= u.m.heap.NumRoots() {
		u.fail("root %d out of range", i)
		return false
	}
	return true
}

// issueBarrierHdr starts (or re-polls) the access barrier's header load.
func (u *mutCore) issueBarrierHdr() {
	if !u.m.mem.IssueLoad(u.id, mem.HeaderLoad, u.Regs[u.Op.Reg]) {
		u.Stats.StallCycles++
		u.St = muHdrIssue
		return
	}
	u.St = muHdrWait
}

// execute runs the field access once the barrier has admitted it. Slot
// bounds are validated against the (now stable) header implied shape via
// the heap, which is exact because the object is black.
func (u *mutCore) execute() {
	base := u.Regs[u.Op.Reg]
	hd := u.m.heap.Header(base)
	switch u.Op.Kind {
	case MutLoadPtr, MutStorePtr:
		if u.Op.Slot < 0 || u.Op.Slot >= hd.Pi {
			u.fail("op %d: pointer slot %d out of range (π=%d)", u.Seq-1, u.Op.Slot, hd.Pi)
			return
		}
	case MutLoadData, MutStoreData:
		if u.Op.Slot < 0 || u.Op.Slot >= hd.Delta {
			u.fail("op %d: data slot %d out of range (δ=%d)", u.Seq-1, u.Op.Slot, hd.Delta)
			return
		}
	}
	switch u.Op.Kind {
	case MutLoadPtr, MutLoadData:
		u.issueBodyLoad()
	case MutStorePtr:
		u.startBarrier()
	case MutStoreData:
		u.issueBodyStore()
	}
}

// startBarrier runs the configured write barrier in front of a pointer
// store, then performs the store itself.
func (u *mutCore) startBarrier() {
	switch u.m.cfg.BarrierMode {
	case BarrierSATB:
		// Deletion barrier: the old value of the slot must be read before it
		// is overwritten — one timed body load, plus a shade of the old
		// target when it is non-nil.
		u.Stats.BarrierInvocations++
		u.issueOldLoad()
	case BarrierIncUpdate:
		// Insertion barrier: the new target is shaded. Nil stores are free.
		u.Stats.BarrierInvocations++
		if tgt := u.Regs[u.Op.Reg2]; tgt != object.NilPtr {
			u.shade(tgt)
			return
		}
		u.issueBodyStore()
	default:
		u.issueBodyStore()
	}
}

// issueOldLoad starts the SATB barrier's load of the slot's current value.
func (u *mutCore) issueOldLoad() {
	if !u.m.mem.IssueLoad(u.id, mem.BodyLoad, u.bodyAddr()) {
		u.Stats.StallCycles++
		u.St = muOldIssue
		return
	}
	u.St = muOldWait
}

// shade retains target for the current marking cycle: one header load
// models the mark/retain touch (the object is already in tospace — the
// mutator can only hold tospace references — so no copy is required, and
// the FIFO's strict publish order must not be disturbed). The shaded set
// feeds the floating-garbage accounting at the end of the collection.
func (u *mutCore) shade(target object.Addr) {
	u.ShadeTarget = target
	if !u.m.mem.IssueLoad(u.id, mem.HeaderLoad, target) {
		u.Stats.StallCycles++
		u.St = muShadeIssue
		return
	}
	if !u.shadedSet[target] {
		if u.shadedSet == nil {
			u.shadedSet = make(map[object.Addr]bool)
		}
		u.shadedSet[target] = true
		u.Shaded = append(u.Shaded, target)
		u.Stats.ShadedObjects++
	}
	u.St = muShadeWait
}

func (u *mutCore) bodyAddr() object.Addr {
	base := u.Regs[u.Op.Reg]
	if u.Op.Kind == MutLoadPtr || u.Op.Kind == MutStorePtr {
		return object.PtrSlot(base, u.Op.Slot)
	}
	hd := u.m.heap.Header(base)
	return object.DataSlot(base, hd.Pi, u.Op.Slot)
}

func (u *mutCore) issueBodyLoad() {
	if !u.m.mem.IssueLoad(u.id, mem.BodyLoad, u.bodyAddr()) {
		u.Stats.StallCycles++
		u.St = muBodyIssue
		return
	}
	u.St = muBodyWait
}

func (u *mutCore) issueBodyStore() {
	var w object.Word
	if u.Op.Kind == MutStorePtr {
		w = object.Word(u.Regs[u.Op.Reg2])
	} else {
		w = u.Op.Data
	}
	if !u.m.mem.IssueStore(u.id, mem.BodyStore, u.bodyAddr(), w) {
		u.Stats.StallCycles++
		u.St = muBodyStore
		return
	}
	if u.Op.Kind == MutStorePtr {
		u.Stats.PtrStores++
	}
	u.complete()
}

// tryAllocLock contends for the free pointer like an evacuating core.
func (u *mutCore) tryAllocLock() {
	sb := u.m.sb
	if !sb.TryAcquireFree(u.id) {
		u.Stats.AllocLock++
		u.Stats.StallCycles++
		u.St = muAllocLock
		return
	}
	u.AllocBase = sb.Free()
	size := object.Addr(object.Size(u.Op.Pi, u.Op.Delta))
	if u.AllocBase+size > u.m.toLimit {
		sb.ReleaseFree(u.id)
		u.fail("allocation outpaced the collector: free %d + %d exceeds tospace limit %d",
			u.AllocBase, size, u.m.toLimit)
		return
	}
	u.issueAllocHdr()
}

// issueAllocHdr publishes the black-at-birth header and the free increment,
// then releases the lock (one cycle held in the uncontended case, like the
// evacuation path).
func (u *mutCore) issueAllocHdr() {
	hdr := object.Header{Pi: u.Op.Pi, Delta: u.Op.Delta}.Encode()
	if !u.m.mem.IssueStore(u.id, mem.HeaderStore, u.AllocBase, hdr) {
		u.Stats.StallCycles++
		u.St = muAllocHdr
		return
	}
	u.m.hc.Update(u.AllocBase, hdr)
	if u.m.fifo.Push(u.AllocBase, hdr) {
		u.m.fifoDrops++
	}
	sb := u.m.sb
	sb.SetFree(u.id, u.AllocBase+object.Addr(object.Size(u.Op.Pi, u.Op.Delta)))
	sb.ReleaseFree(u.id)
	u.InitIdx = 0
	u.St = muAllocInit
	u.allocInit()
}

// allocInit zero-initializes the new object's frame, one store per cycle:
// index 0 covers header word 1, indices 1..π+δ cover the body, so the frame
// is fully defined before the mutator uses it.
func (u *mutCore) allocInit() {
	body := u.Op.Pi + u.Op.Delta
	if u.InitIdx <= body {
		if !u.m.mem.IssueStore(u.id, mem.BodyStore, u.AllocBase+1+object.Addr(u.InitIdx), 0) {
			u.Stats.StallCycles++
			return // retry this index next cycle
		}
		u.InitIdx++
		if u.InitIdx <= body {
			return // one word per cycle
		}
	}
	u.Regs[u.Op.Reg] = u.AllocBase
	u.Stats.Allocs++
	u.complete()
}

// complete finishes the current operation and returns to the inter-op wait.
func (u *mutCore) complete() {
	u.Stats.Ops++
	if lat := u.m.cycle - u.OpStart; lat > u.Stats.MaxOpLatency {
		u.Stats.MaxOpLatency = lat
	}
	u.WaitLeft = u.period
	u.St = muWait
}
