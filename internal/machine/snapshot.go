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
// State is plain data (no cross-references into a live machine); the
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

// MutState is the register file, micro-state, write-barrier state and churn
// PRNG of the built-in concurrent mutator.
type MutState struct {
	Regs     []object.Addr
	LastData object.Word
	St       int
	Op       MutOp
	Seq      int64
	WaitLeft int
	OpStart  int64

	AllocBase object.Addr
	InitIdx   int

	ShadeTarget object.Addr
	Shaded      []object.Addr

	Stats MutatorStats

	ChurnRng    uint64
	ChurnAllocs int64
	LastWork    int64
}

// CoreState is the register file and micro-state of one GC core.
type CoreState struct {
	St          int
	ObjTo       object.Addr
	Backlink    object.Addr
	Attrs       object.Word
	Pi          int
	Delta       int
	BodyPos     int
	BodyEnd     int
	DataWord    object.Word
	ChildPtr    object.Addr
	ChildHdr    object.Word
	NewPtr      object.Addr
	EvacAddr    object.Addr
	GrayHdr     object.Word
	RootIdx     int
	InRoots     bool
	StartupLeft int64
	SleepUntil  int64
	Stats       CoreStats
}

// FIFOState is the header FIFO's live entries (head first) and counters.
type FIFOState struct {
	Entries  []FIFOEntryState
	Hits     int64
	Misses   int64
	Drops    int64
	MaxDepth int
}

// FIFOEntryState is one buffered gray header.
type FIFOEntryState struct {
	Addr object.Addr
	Hdr  object.Word
}

// HeaderCacheState is the header cache's lines and counters. Lines is empty
// when the cache is disabled.
type HeaderCacheState struct {
	Lines  []HeaderCacheLineState
	Hits   int64
	Misses int64
}

// HeaderCacheLineState is one direct-mapped cache line.
type HeaderCacheLineState struct {
	Valid bool
	Addr  object.Addr
	Data  object.Word
}

// StrideEntryState is one stride-table CAM entry.
type StrideEntryState struct {
	Used        bool
	ObjTo       object.Addr
	Attrs       object.Word
	Outstanding int
	Final       bool
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
		c := &m.coreBuf[i]
		st.Cores[i] = CoreState{
			St:          int(c.st),
			ObjTo:       c.objTo,
			Backlink:    c.backlink,
			Attrs:       c.attrs,
			Pi:          c.pi,
			Delta:       c.delta,
			BodyPos:     c.bodyPos,
			BodyEnd:     c.bodyEnd,
			DataWord:    c.dataWord,
			ChildPtr:    c.childPtr,
			ChildHdr:    c.childHdr,
			NewPtr:      c.newPtr,
			EvacAddr:    c.evacAddr,
			GrayHdr:     c.grayHdr,
			RootIdx:     c.rootIdx,
			InRoots:     c.inRoots,
			StartupLeft: c.startupLeft,
			SleepUntil:  c.sleepUntil,
			Stats:       c.stats,
		}
	}
	f := m.fifo
	st.FIFO = FIFOState{Hits: f.hits, Misses: f.misses, Drops: f.drops, MaxDepth: f.maxDepth}
	for _, e := range f.entries[f.head:] {
		st.FIFO.Entries = append(st.FIFO.Entries, FIFOEntryState{Addr: e.addr, Hdr: e.hdr})
	}
	st.HeaderCache = HeaderCacheState{Hits: m.hc.hits, Misses: m.hc.misses}
	for _, l := range m.hc.lines {
		st.HeaderCache.Lines = append(st.HeaderCache.Lines, HeaderCacheLineState{
			Valid: l.valid, Addr: l.addr, Data: l.data,
		})
	}
	if m.strides != nil {
		for _, e := range m.strides.entries {
			st.Strides = append(st.Strides, StrideEntryState{
				Used: e.used, ObjTo: e.objTo, Attrs: e.attrs,
				Outstanding: e.outstanding, Final: e.final,
			})
		}
	}
	if u := m.mut; u != nil {
		ms := &MutState{
			Regs:        append([]object.Addr(nil), u.regs...),
			LastData:    u.lastData,
			St:          int(u.st),
			Op:          u.op,
			Seq:         u.seq,
			WaitLeft:    u.waitLeft,
			OpStart:     u.opStart,
			AllocBase:   u.allocBase,
			InitIdx:     u.initIdx,
			ShadeTarget: u.shadeTarget,
			Shaded:      append([]object.Addr(nil), u.shaded...),
			Stats:       u.stats,
			ChurnRng:    u.churn.rng,
			ChurnAllocs: u.churn.allocs,
			LastWork:    m.lastWork,
		}
		st.Mut = ms
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
	m.cores = make([]*core, cfg.Cores)
	m.ffKinds = make([]ffStall, cfg.Cores)
	m.doneCount = 0
	for i := range st.Cores {
		s := &st.Cores[i]
		if s.St < int(sIdle) || s.St > int(sDone) {
			return nil, fmt.Errorf("machine: snapshot core %d in unknown state %d", i, s.St)
		}
		if s.InRoots && (s.RootIdx < 0 || s.RootIdx > h.NumRoots()) {
			return nil, fmt.Errorf("machine: snapshot core %d root index %d out of range", i, s.RootIdx)
		}
		c := &m.coreBuf[i]
		*c = core{
			id:          i,
			m:           m,
			st:          coreState(s.St),
			objTo:       s.ObjTo,
			backlink:    s.Backlink,
			attrs:       s.Attrs,
			pi:          s.Pi,
			delta:       s.Delta,
			bodyPos:     s.BodyPos,
			bodyEnd:     s.BodyEnd,
			dataWord:    s.DataWord,
			childPtr:    s.ChildPtr,
			childHdr:    s.ChildHdr,
			newPtr:      s.NewPtr,
			evacAddr:    s.EvacAddr,
			grayHdr:     s.GrayHdr,
			rootIdx:     s.RootIdx,
			inRoots:     s.InRoots,
			startupLeft: s.StartupLeft,
			sleepUntil:  s.SleepUntil,
			stats:       s.Stats,
		}
		if c.st == sDone {
			m.doneCount++
		}
		m.cores[i] = c
	}

	m.fifo.Reset()
	for _, e := range st.FIFO.Entries {
		m.fifo.entries = append(m.fifo.entries, fifoEntry{addr: e.Addr, hdr: e.Hdr})
	}
	if !m.fifo.disabled && m.fifo.Len() > m.fifo.cap {
		return nil, fmt.Errorf("machine: snapshot FIFO holds %d entries, capacity %d", m.fifo.Len(), m.fifo.cap)
	}
	m.fifo.hits = st.FIFO.Hits
	m.fifo.misses = st.FIFO.Misses
	m.fifo.drops = st.FIFO.Drops
	m.fifo.maxDepth = st.FIFO.MaxDepth

	if len(st.HeaderCache.Lines) != len(m.hc.lines) {
		return nil, fmt.Errorf("machine: snapshot header cache has %d lines, config builds %d",
			len(st.HeaderCache.Lines), len(m.hc.lines))
	}
	for i, l := range st.HeaderCache.Lines {
		m.hc.lines[i] = headerCacheLine{valid: l.Valid, addr: l.Addr, data: l.Data}
	}
	m.hc.hits = st.HeaderCache.Hits
	m.hc.misses = st.HeaderCache.Misses

	if m.strides != nil {
		if len(st.Strides) != len(m.strides.entries) {
			return nil, fmt.Errorf("machine: snapshot stride table has %d entries, config builds %d",
				len(st.Strides), len(m.strides.entries))
		}
		for i, e := range st.Strides {
			m.strides.entries[i] = strideEntry{
				used: e.Used, objTo: e.ObjTo, attrs: e.Attrs,
				outstanding: e.Outstanding, final: e.Final,
			}
		}
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
		if s.St < int(muWait) || s.St > int(muShadeWait) {
			return nil, fmt.Errorf("machine: snapshot mutator in unknown state %d", s.St)
		}
		ch := newChurnState(h, cfg)
		ch.rng = s.ChurnRng
		ch.allocs = s.ChurnAllocs
		u := newMutCore(m, ch.drive, cfg.MutatorPeriod)
		u.churn = ch
		copy(u.regs, s.Regs)
		u.lastData = s.LastData
		u.st = mutState(s.St)
		u.op = s.Op
		u.seq = s.Seq
		u.waitLeft = s.WaitLeft
		u.opStart = s.OpStart
		u.allocBase = s.AllocBase
		u.initIdx = s.InitIdx
		u.shadeTarget = s.ShadeTarget
		u.shaded = append([]object.Addr(nil), s.Shaded...)
		for _, a := range u.shaded {
			if u.shadedSet == nil {
				u.shadedSet = make(map[object.Addr]bool, len(u.shaded))
			}
			u.shadedSet[a] = true
		}
		u.stats = s.Stats
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
	m.microSleep = !m.NoFastForward && m.mut == nil && cfg.L1Sets == 0 // no probe on a fresh restore
	m.phase = phaseRunning
	return m, nil
}
