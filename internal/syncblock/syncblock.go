// Package syncblock models the coprocessor's synchronization block (SB)
// (paper Section V-C).
//
// The SB maintains the global synchronization state of the multi-core GC
// coprocessor:
//
//   - The scan and free registers, readable by all cores simultaneously, each
//     protected by a lock. A core acquires a lock with a micro-operation; if
//     the lock is held, the SB stalls the core until the owner releases it.
//     Simultaneous claims are resolved by a static prioritization scheme
//     (lower core index wins). Acquisition incurs no clock-cycle penalty in
//     the uncontended case, and a lock released by one core can be
//     reacquired by another core in the same cycle.
//
//   - One header-lock register per core. A core can only change its own
//     register; to acquire a header lock the SB compares the requested
//     address against all other header-lock registers in parallel and stalls
//     the core on a match.
//
//   - The ScanState register with one busy bit per core, used by the
//     termination-detection scheme of Section IV.
//
//   - Barrier synchronization: any micro-instruction can be marked as
//     synchronizing; a core executing one is stalled until all cores have
//     reached a synchronizing micro-instruction.
//
// The cycle-stepped machine steps cores in ascending index order within each
// clock cycle, which realizes the static priority scheme: if core i releases
// a lock during its step, any core j that steps afterwards in the same cycle
// may acquire it (same-cycle release/reacquire), and among cores that stall
// on the same lock the lowest-indexed one acquires it first on the following
// cycle.
package syncblock

import (
	"fmt"

	"hwgc/internal/object"
)

// noOwner marks an unheld lock.
const noOwner = -1

// Stats counts synchronization events for analysis and tests.
type Stats struct {
	ScanAcquisitions   int64
	FreeAcquisitions   int64
	HeaderAcquisitions int64
	ScanConflicts      int64 // failed scan-lock attempts
	FreeConflicts      int64
	HeaderConflicts    int64
}

// SB is the synchronization block shared by all cores of the coprocessor.
// It is not safe for concurrent use; the machine drives it cycle by cycle.
type SB struct {
	// st holds the registers; a snapshot copies it. HeaderReg holds NilPtr
	// for an unlocked core, and Barriers the arrival bits by barrier id.
	st State

	busyCount int   // number of set busy bits, maintained incrementally
	arrived   []int // arrival count per barrier id (len == len(st.Barriers))
}

// New creates a synchronization block for n cores.
func New(n int) *SB {
	if n < 1 {
		panic("syncblock: need at least one core")
	}
	return &SB{st: State{
		Cores:     n,
		ScanOwner: noOwner,
		FreeOwner: noOwner,
		HeaderReg: make([]object.Addr, n),
		Busy:      make([]bool, n),
	}}
}

// Cores returns the number of cores attached to the SB.
func (s *SB) Cores() int { return s.st.Cores }

// Reset prepares the SB for a new collection cycle with the given initial
// scan and free register values.
func (s *SB) Reset(scan, free object.Addr) {
	clear(s.st.HeaderReg) // NilPtr
	clear(s.st.Busy)
	for _, arr := range s.st.Barriers {
		clear(arr)
	}
	clear(s.arrived)
	s.busyCount = 0
	s.st = State{
		Cores:     s.st.Cores,
		Scan:      scan,
		Free:      free,
		ScanOwner: noOwner,
		FreeOwner: noOwner,
		HeaderReg: s.st.HeaderReg,
		Busy:      s.st.Busy,
		Barriers:  s.st.Barriers,
	}
}

// Stats returns a copy of the synchronization counters.
func (s *SB) Stats() Stats { return s.st.Stats }

// Scan reads the scan register (readable by all cores every cycle).
func (s *SB) Scan() object.Addr { return s.st.Scan }

// Free reads the free register (readable by all cores every cycle).
func (s *SB) Free() object.Addr { return s.st.Free }

// TryAcquireScan attempts to acquire the scan lock for core. At most one
// core may modify the scan register per cycle; static priority is realized
// by the machine's core stepping order.
func (s *SB) TryAcquireScan(core int) bool {
	if s.st.ScanOwner == core {
		return true
	}
	if s.st.ScanOwner != noOwner {
		s.st.Stats.ScanConflicts++
		return false
	}
	s.st.ScanOwner = core
	s.st.Stats.ScanAcquisitions++
	return true
}

// ReleaseScan releases the scan lock held by core.
func (s *SB) ReleaseScan(core int) {
	if s.st.ScanOwner != core {
		panic(fmt.Sprintf("syncblock: core %d releasing scan lock owned by %d", core, s.st.ScanOwner))
	}
	s.st.ScanOwner = noOwner
}

// SetScan writes the scan register; only the lock owner may do so.
func (s *SB) SetScan(core int, a object.Addr) {
	if s.st.ScanOwner != core {
		panic(fmt.Sprintf("syncblock: core %d writing scan without lock", core))
	}
	s.st.Scan = a
}

// TryAcquireFree attempts to acquire the free lock for core.
func (s *SB) TryAcquireFree(core int) bool {
	if s.st.FreeOwner == core {
		return true
	}
	if s.st.FreeOwner != noOwner {
		s.st.Stats.FreeConflicts++
		return false
	}
	s.st.FreeOwner = core
	s.st.Stats.FreeAcquisitions++
	return true
}

// ReleaseFree releases the free lock held by core.
func (s *SB) ReleaseFree(core int) {
	if s.st.FreeOwner != core {
		panic(fmt.Sprintf("syncblock: core %d releasing free lock owned by %d", core, s.st.FreeOwner))
	}
	s.st.FreeOwner = noOwner
}

// SetFree writes the free register; only the lock owner may do so.
func (s *SB) SetFree(core int, a object.Addr) {
	if s.st.FreeOwner != core {
		panic(fmt.Sprintf("syncblock: core %d writing free without lock", core))
	}
	s.st.Free = a
}

// ScanOwner returns the core currently holding the scan lock, or -1.
func (s *SB) ScanOwner() int { return s.st.ScanOwner }

// FreeOwner returns the core currently holding the free lock, or -1.
func (s *SB) FreeOwner() int { return s.st.FreeOwner }

// TryLockHeader attempts to set core's header-lock register to addr. The SB
// compares addr against all other header-lock registers in parallel; on a
// match the core stalls (returns false).
func (s *SB) TryLockHeader(core int, addr object.Addr) bool {
	if addr == object.NilPtr {
		panic("syncblock: cannot header-lock the nil address")
	}
	if s.st.HeaderReg[core] == addr {
		return true
	}
	if s.st.HeaderReg[core] != object.NilPtr {
		panic(fmt.Sprintf("syncblock: core %d already holds header lock %d", core, s.st.HeaderReg[core]))
	}
	for i, r := range s.st.HeaderReg {
		if i != core && r == addr {
			s.st.Stats.HeaderConflicts++
			return false
		}
	}
	s.st.HeaderReg[core] = addr
	s.st.Stats.HeaderAcquisitions++
	return true
}

// UnlockHeader clears core's header-lock register.
func (s *SB) UnlockHeader(core int) {
	s.st.HeaderReg[core] = object.NilPtr
}

// HeaderLockOf returns the address in core's header-lock register (NilPtr if
// unlocked).
func (s *SB) HeaderLockOf(core int) object.Addr { return s.st.HeaderReg[core] }

// SetBusy sets or clears core's busy bit in the ScanState register.
func (s *SB) SetBusy(core int, b bool) {
	if s.st.Busy[core] != b {
		s.st.Busy[core] = b
		if b {
			s.busyCount++
		} else {
			s.busyCount--
		}
	}
}

// Busy reports core's busy bit.
func (s *SB) Busy(core int) bool { return s.st.Busy[core] }

// AllIdle reports whether no core currently has its busy bit set. Together
// with scan == free this is the algorithm's termination condition; because
// cores are stepped one at a time, the combined check is atomic, exactly as
// the SB hardware performs it.
func (s *SB) AllIdle() bool { return s.busyCount == 0 }

// Barrier registers core's arrival at the synchronizing micro-instruction
// identified by id and reports whether all cores have arrived. Cores poll it
// every cycle until it reports true. Each id is used for one barrier per
// collection cycle.
func (s *SB) Barrier(id, core int) bool {
	for id >= len(s.st.Barriers) {
		s.st.Barriers = append(s.st.Barriers, nil)
		s.arrived = append(s.arrived, 0)
	}
	if s.st.Barriers[id] == nil {
		s.st.Barriers[id] = make([]bool, s.st.Cores)
	}
	if arr := s.st.Barriers[id]; !arr[core] {
		arr[core] = true
		s.arrived[id]++
	}
	return s.arrived[id] == s.st.Cores
}

// BarrierComplete reports whether every core has already arrived at barrier
// id, without registering an arrival. The machine's fast-forward uses it to
// prove that a core blocked at a synchronizing micro-instruction cannot be
// released this cycle.
func (s *SB) BarrierComplete(id int) bool {
	return id < len(s.arrived) && s.arrived[id] == s.st.Cores
}

// HeaderLockConflict reports whether a core other than core currently holds
// addr in its header-lock register — i.e. whether TryLockHeader(core, addr)
// would stall. The fast-forward path uses it to classify a core as dead in
// the header-lock state.
func (s *SB) HeaderLockConflict(core int, addr object.Addr) bool {
	for i, r := range s.st.HeaderReg {
		if i != core && r == addr {
			return true
		}
	}
	return false
}

// AddConflictStalls accumulates failed-acquisition counters arithmetically
// on behalf of the machine's fast-forward: a core spinning on a held lock
// would have retried (and failed) the acquisition once per skipped cycle, so
// the skipped retries are added in bulk to keep Stats bit-identical to the
// stepped run.
func (s *SB) AddConflictStalls(scan, free, header int64) {
	s.st.Stats.ScanConflicts += scan
	s.st.Stats.FreeConflicts += free
	s.st.Stats.HeaderConflicts += header
}

// CheckLockOrder validates the fixed lock-ordering scheme scan < header <
// free (paper Section IV, after Habermann): a core holding the free lock may
// hold a header lock and the scan lock is never requested while holding
// either. The machine calls it in debug builds of the step loop; a violation
// indicates a microprogram bug.
func (s *SB) CheckLockOrder() error {
	// The only statically checkable global invariant is that at most one
	// core owns each of scan/free and that header registers are mutually
	// distinct (when set).
	seen := make(map[object.Addr]int)
	for i, r := range s.st.HeaderReg {
		if r == object.NilPtr {
			continue
		}
		if j, dup := seen[r]; dup {
			return fmt.Errorf("syncblock: cores %d and %d both hold header lock %d", j, i, r)
		}
		seen[r] = i
	}
	return nil
}
