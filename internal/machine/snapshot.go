package machine

import (
	"fmt"

	"hwgc/internal/heap"
	"hwgc/internal/mem"
	"hwgc/internal/object"
	"hwgc/internal/syncblock"
)

// State is the complete state of a Machine suspended between two clock
// cycles of a collection: the heap image, the synchronization block, the
// memory scheduler with its in-flight transactions, every core's register
// file and micro-state, the header FIFO and cache, the stride table, and
// the cycle-loop bookkeeping. A Machine restored from a State steps exactly
// as the original would have — Stats and final heap image are bit-identical
// to the uninterrupted run.
//
// The live machine keeps these registers in the same types: each core
// embeds its CoreState, the FIFO, header cache and mutator embed theirs, and
// the heap, memory scheduler and synchronization block keep theirs in their
// own State types. Snapshot is therefore a deep copy out and RestoreMachine
// a validate-then-copy-in; neither shares a slice with the other side, so a
// State may be restored any number of times. State is plain data; the
// snapshot package serializes it.
type State struct {
	Config Config
	Heap   *heap.State
	Mem    *mem.State
	Sync   *syncblock.State

	Cycle       int64
	MaxCycles   int64
	ScanStart   int64
	ScanEnd     int64
	EmptyCycles int64
	FIFODrops   int64
	FFJumps     int64
	FFSkipped   int64

	ScanFrameValid bool
	ScanFrameHdr   object.Word
	ScanOff        int
	MutStarted     bool
	NoFastForward  bool

	Cores       []CoreState
	FIFO        FIFOState
	HeaderCache HeaderCacheState
	Strides     []StrideEntryState

	// Mut is the built-in concurrent mutator's port; nil in stop-the-world
	// mode. Only the config-driven churn mutator is capturable — the
	// test-only scripted driver's program state lives outside the machine.
	Mut *MutState
}

// Heap exposes the heap the machine collects (snapshot and tests).
func (m *Machine) Heap() *heap.Heap { return m.heap }

// Snapshot captures the machine's complete state between two clock cycles
// of a running collection. It fails when no collection is in progress (the
// machine state is then not self-contained), when the collection has
// already failed, or in concurrent-mutator mode (the mutator's untimed
// program state lives outside the machine).
func (m *Machine) Snapshot() (*State, error) {
	if m.phase != phaseRunning {
		return nil, fmt.Errorf("machine: Snapshot outside a running collection")
	}
	if m.err != nil {
		return nil, fmt.Errorf("machine: Snapshot of a failed collection: %w", m.err)
	}
	if m.mut != nil && !m.mutBuiltin {
		return nil, fmt.Errorf("machine: Snapshot unsupported with a scripted mutator driver")
	}
	st := &State{
		Config: m.cfg,
		Heap:   m.heap.CaptureState(),
		Mem:    m.mem.CaptureState(),
		Sync:   m.sb.CaptureState(),

		Cycle:       m.cycle,
		MaxCycles:   m.maxCycles,
		ScanStart:   m.scanStart,
		ScanEnd:     m.scanEnd,
		EmptyCycles: m.emptyCycles,
		FIFODrops:   m.fifoDrops,
		FFJumps:     m.ffJumps,
		FFSkipped:   m.ffSkipped,

		ScanFrameValid: m.scanFrameValid,
		ScanFrameHdr:   m.scanFrameHdr,
		ScanOff:        m.scanOff,
		MutStarted:     m.mutStarted,
		NoFastForward:  m.NoFastForward,

		Cores: make([]CoreState, len(m.coreBuf)),
	}
	for i := range m.coreBuf {
		st.Cores[i] = m.coreBuf[i].CoreState
	}
	st.FIFO = m.fifo.FIFOState
	st.FIFO.Entries = nil
	if m.fifo.n > 0 {
		st.FIFO.Entries = m.fifo.live(make([]FIFOEntryState, m.fifo.n))
	}
	st.HeaderCache = m.hc.HeaderCacheState
	st.HeaderCache.Lines = append([]HeaderCacheLineState(nil), m.hc.Lines...)
	if m.strides != nil {
		st.Strides = append([]StrideEntryState(nil), m.strides.entries...)
	}
	if u := m.mut; u != nil {
		ms := u.MutState
		ms.Regs = append([]object.Addr(nil), u.Regs...)
		ms.Shaded = append([]object.Addr(nil), u.Shaded...)
		ms.ChurnRng = u.churn.rng
		ms.ChurnAllocs = u.churn.allocs
		ms.LastWork = m.lastWork
		st.Mut = &ms
	}
	return st, nil
}

// RestoreMachine reconstructs a machine mid-collection from a captured
// state. The state's Config is the capturing machine's *effective* config
// and is used verbatim (WithDefaults is not re-applied — it is not
// idempotent for explicit zero values). The restored machine is driven to
// completion with Resume, or stepped and re-snapshotted like any other.
func RestoreMachine(st *State) (*Machine, error) {
	if st == nil {
		return nil, fmt.Errorf("machine: nil state")
	}
	cfg := st.Config
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("machine: snapshot config: %w", err)
	}
	if len(st.Cores) != cfg.Cores {
		return nil, fmt.Errorf("machine: snapshot has %d cores, config says %d", len(st.Cores), cfg.Cores)
	}
	h, err := heap.FromState(st.Heap)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:  cfg,
		heap: h,
		mem:  mem.New(h.Mem(), memConfig(cfg)),
		sb:   syncblock.New(cfg.Cores),
		fifo: newHeaderFIFO(cfg.FIFOCapacity, cfg.DisableFIFO),
		hc:   newHeaderCache(cfg.HeaderCacheLines),
	}
	if cfg.StrideWords > 0 {
		m.strides = newStrideTable(cfg.Cores)
	}
	ports := cfg.Cores
	if st.Mut != nil {
		ports++ // the restored mutator keeps its own memory ports
	}
	m.mem.AttachCores(ports)
	if cfg.NUMADomains > 0 && cfg.NUMAPlacement == PlacementLocal {
		// Re-derive the locality-aware tospace window exactly as
		// BeginCollect does; it is config + heap state, not snapshot state.
		m.mem.SetLocalWindow(h.Base(h.OtherSpace()), h.Limit(h.OtherSpace()))
	}
	if err := m.mem.RestoreState(st.Mem); err != nil {
		return nil, err
	}
	if st.Sync == nil {
		return nil, fmt.Errorf("machine: snapshot missing sync state")
	}
	if err := m.sb.RestoreState(st.Sync); err != nil {
		return nil, err
	}

	m.coreBuf = make([]core, cfg.Cores)
	m.ffKinds = make([]ffStall, cfg.Cores)
	m.doneCount = 0
	for i := range st.Cores {
		s := &st.Cores[i]
		if s.St < sIdle || s.St > sDone {
			return nil, fmt.Errorf("machine: snapshot core %d in unknown state %d", i, s.St)
		}
		if s.InRoots && (s.RootIdx < 0 || s.RootIdx > h.NumRoots()) {
			return nil, fmt.Errorf("machine: snapshot core %d root index %d out of range", i, s.RootIdx)
		}
		c := &m.coreBuf[i]
		*c = core{CoreState: *s, id: i, m: m}
		if c.St == sDone {
			m.doneCount++
		}
	}

	if !m.fifo.disabled && len(st.FIFO.Entries) > m.fifo.cap {
		return nil, fmt.Errorf("machine: snapshot FIFO holds %d entries, capacity %d", len(st.FIFO.Entries), m.fifo.cap)
	}
	m.fifo.FIFOState = st.FIFO
	m.fifo.Entries = append([]FIFOEntryState(nil), st.FIFO.Entries...)
	m.fifo.head, m.fifo.n = 0, len(st.FIFO.Entries)

	if len(st.HeaderCache.Lines) != len(m.hc.Lines) {
		return nil, fmt.Errorf("machine: snapshot header cache has %d lines, config builds %d",
			len(st.HeaderCache.Lines), len(m.hc.Lines))
	}
	m.hc.HeaderCacheState = st.HeaderCache
	m.hc.Lines = append([]HeaderCacheLineState(nil), st.HeaderCache.Lines...)

	if m.strides != nil {
		if len(st.Strides) != len(m.strides.entries) {
			return nil, fmt.Errorf("machine: snapshot stride table has %d entries, config builds %d",
				len(st.Strides), len(m.strides.entries))
		}
		copy(m.strides.entries, st.Strides)
	} else if len(st.Strides) > 0 {
		return nil, fmt.Errorf("machine: snapshot has stride state but strides are disabled")
	}

	if s := st.Mut; s != nil {
		if cfg.MutatorOps <= 0 {
			return nil, fmt.Errorf("machine: snapshot has mutator state but the config enables no built-in mutator")
		}
		if len(s.Regs) != MutatorRegisters {
			return nil, fmt.Errorf("machine: snapshot mutator has %d registers, want %d", len(s.Regs), MutatorRegisters)
		}
		if s.St < muWait || s.St > muShadeWait {
			return nil, fmt.Errorf("machine: snapshot mutator in unknown state %d", s.St)
		}
		ch := newChurnState(h, cfg)
		ch.rng = s.ChurnRng
		ch.allocs = s.ChurnAllocs
		u := newMutCore(m, ch.drive, cfg.MutatorPeriod)
		u.churn = ch
		u.MutState = *s
		u.Regs = append([]object.Addr(nil), s.Regs...)
		u.Shaded = append([]object.Addr(nil), s.Shaded...)
		u.ChurnRng, u.ChurnAllocs, u.LastWork = 0, 0, 0
		if len(u.Shaded) > 0 {
			u.shadedSet = make(map[object.Addr]bool, len(u.Shaded))
			for _, a := range u.Shaded {
				u.shadedSet[a] = true
			}
		}
		m.mut = u
		m.mutBuiltin = true
		m.lastWork = s.LastWork
	} else if cfg.MutatorOps > 0 {
		return nil, fmt.Errorf("machine: config enables the built-in mutator but the snapshot has no mutator state")
	}

	m.scanFrameValid = st.ScanFrameValid
	m.scanFrameHdr = st.ScanFrameHdr
	m.scanOff = st.ScanOff
	m.mutStarted = st.MutStarted
	m.cycle = st.Cycle
	m.resetAwake()
	m.fifoDrops = st.FIFODrops
	m.toLimit = h.Limit(h.OtherSpace())
	m.maxCycles = st.MaxCycles
	if m.maxCycles <= 0 {
		return nil, fmt.Errorf("machine: snapshot livelock bound %d not positive", m.maxCycles)
	}
	m.scanStart = st.ScanStart
	m.scanEnd = st.ScanEnd
	m.emptyCycles = st.EmptyCycles
	m.ffJumps = st.FFJumps
	m.ffSkipped = st.FFSkipped
	m.NoFastForward = st.NoFastForward
	m.microSleep = m.fastForwardable() // no probe on a fresh restore
	m.phase = phaseRunning
	return m, nil
}
