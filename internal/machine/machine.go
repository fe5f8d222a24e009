package machine

import (
	"fmt"
	"math/bits"

	"hwgc/internal/heap"
	"hwgc/internal/mem"
	"hwgc/internal/object"
	"hwgc/internal/syncblock"
)

// Machine is one instance of the multi-core GC coprocessor attached to a
// heap. A Machine is reusable: each call to Collect runs one complete
// garbage collection cycle (the coprocessor stops the main processor for the
// whole cycle, Section V-B).
type Machine struct {
	cfg  Config
	heap *heap.Heap
	mem  *mem.Memory
	sb   *syncblock.SB
	fifo *headerFIFO
	hc   *headerCache

	// Scan-state registers for stride mode (guarded by the scan lock).
	strides        *strideTable
	scanFrameValid bool
	scanFrameHdr   object.Word
	scanOff        int

	// Concurrent-mode mutator port (nil in stop-the-world mode).
	mut        *mutCore
	mutStarted bool
	// mutBuiltin marks a mutator constructed from Config.MutatorOps (the
	// snapshot-able churn driver) rather than the test-only scripted driver.
	mutBuiltin bool
	// lastWork is the cycle of the most recent marking progress (an object
	// blackened or a black-at-birth frame stepped over); scanEnd − lastWork
	// is the mark-termination latency reported in concurrent mode.
	lastWork int64

	coreBuf       []core // the cores, reused across Collects
	doneCount     int    // cores in sDone (they never leave it)
	cycle         int64
	fifoDrops     int64
	toLimit       object.Addr
	emptyObserved bool // some core sought work this cycle and found scan == free
	err           error

	// Cycle-loop state, held on the Machine (rather than as locals of
	// Collect) so a collection can be suspended between cycles, captured by
	// Snapshot and resumed bit-identically (see snapshot.go).
	phase       collectPhase
	maxCycles   int64 // livelock bound, fixed by BeginCollect
	scanStart   int64 // first cycle after root evacuation, -1 until known
	scanEnd     int64 // cycle every core detected termination, -1 until known
	emptyCycles int64 // accumulated empty-work-list cycles

	// Event-driven fast-forward state (see fastforward.go).
	ffKinds   []ffStall // per-core scratch, reused every dead cycle
	ffJumps   int64
	ffSkipped int64
	// microSleep allows individual cores waiting on an accepted load to
	// pre-account their stall cycles and skip their steps until the data
	// arrives (sleepAccepted). Gated exactly like fastForward, and
	// computed once per Collect.
	microSleep bool
	// awake has bit i set for every core i whose step the cycle loop runs:
	// SleepUntil <= cycle. The other cores sleep, and sleepQ holds them in
	// wake order — by SleepUntil, ties in the order they fell asleep — as
	// a ring of sleepN entries from sleepHead; wakeDue pops the due ones.
	awake     uint64
	sleepQ    [MaxCores]wakeEntry
	sleepHead int
	sleepN    int

	// probes holds the observers registered via AddProbe, invoked in
	// registration order after every cycle; the monitoring framework
	// (internal/trace) uses one to sample signals.
	probes []func(cycle int64, m *Machine)

	// NoFastForward forces per-cycle stepping even when no probe is
	// attached. The determinism suite uses it to check that fast-forwarded
	// collections are bit-identical to stepped ones. It deliberately lives
	// on the Machine rather than in Config: Stats embeds the Config, which
	// must not differ between the two modes.
	NoFastForward bool
}

// wakeEntry is one sleeping core and the cycle it wakes at.
type wakeEntry struct {
	at   int64
	core int
}

// The awake set is one word, and sleepQ's ring index wraps with a mask:
// Validate keeps Cores within MaxCores, a power of two no larger than 64.
const (
	_ = uint64(1) << (MaxCores - 1)
	_ = uint(-(MaxCores & (MaxCores - 1)))
)

// New creates a coprocessor over h.
func New(h *heap.Heap, cfg Config) (*Machine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
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
	return m, nil
}

// memConfig maps the machine configuration onto the memory model's. It is
// the single source of truth for both New and RestoreMachine.
func memConfig(cfg Config) mem.Config {
	return mem.Config{
		Latency:          cfg.MemLatency,
		ExtraLatency:     cfg.ExtraMemLatency,
		Bandwidth:        cfg.MemBandwidth,
		StoreQueueDepth:  cfg.MemStoreQueueDepth,
		Banks:            cfg.MemBanks,
		BankBusy:         cfg.MemBankBusy,
		Domains:          cfg.NUMADomains,
		RemotePenalty:    cfg.NUMARemotePenalty,
		DomainInterleave: cfg.NUMAInterleave,
		DomainBandwidth:  cfg.NUMABandwidth,
		L1Sets:           cfg.L1Sets,
		L1Ways:           cfg.L1Ways,
		L2Sets:           cfg.L2Sets,
		L2Ways:           cfg.L2Ways,
		MSHRs:            cfg.MSHRs,
		LineWords:        cfg.CacheLineWords,
	}
}

// Config returns the machine's effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// SB exposes the synchronization block (tests and tracing).
func (m *Machine) SB() *syncblock.SB { return m.sb }

// Mem exposes the memory scheduler (tests and tracing).
func (m *Machine) Mem() *mem.Memory { return m.mem }

// FIFODepth returns the current header FIFO occupancy (tracing).
func (m *Machine) FIFODepth() int { return m.fifo.Len() }

// Cycle returns the current clock cycle of the running collection.
func (m *Machine) Cycle() int64 { return m.cycle }

// CoreState returns a short description of core i's state (tracing).
func (m *Machine) CoreState(i int) string { return coreStateName(m.coreBuf[i].St) }

// fail records a fatal simulation error; the cycle loop aborts on the next
// iteration.
func (m *Machine) failf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// collectPhase tracks where a Machine is in the Begin/Step/Finish life
// cycle of one collection.
type collectPhase int

const (
	phaseIdle    collectPhase = iota // no collection in progress
	phaseRunning                     // between BeginCollect and termination
	phaseDone                        // terminated, awaiting FinishCollect
)

// AddProbe registers a per-cycle observer, invoked after every simulated
// clock cycle in registration order. Any registered observer forces full
// per-cycle stepping — fast-forward and micro-sleep are disabled so every
// cycle is observable. Probes registered mid-collection take effect from
// the next cycle; they are not captured by Snapshot.
func (m *Machine) AddProbe(p func(cycle int64, m *Machine)) {
	if p == nil {
		return
	}
	m.probes = append(m.probes, p)
	m.microSleep = false
}

// probing reports whether any per-cycle observer is attached.
func (m *Machine) probing() bool { return len(m.probes) > 0 }

// fireProbes invokes the AddProbe observers.
func (m *Machine) fireProbes() {
	for _, p := range m.probes {
		p(m.cycle, m)
	}
}

// Collect runs one complete garbage collection cycle and returns its
// statistics. On success the heap has been flipped: the surviving objects
// sit compacted at the bottom of the new current space and the roots point
// at them.
//
// Collect is BeginCollect + StepCycle-until-done + FinishCollect; callers
// that need to suspend a collection (checkpointing, replay) drive those
// phases directly.
func (m *Machine) Collect() (Stats, error) {
	m.BeginCollect()
	for {
		done, err := m.StepCycle()
		if err != nil {
			return Stats{}, err
		}
		if done {
			break
		}
	}
	return m.FinishCollect()
}

// BeginCollect resets the machine and starts a new collection cycle. Any
// previous collection state (including a failed one) is discarded. After
// BeginCollect the machine is mid-collection: drive it with StepCycle /
// StepCycles and call FinishCollect once a step reports done.
func (m *Machine) BeginCollect() {
	h := m.heap
	to := h.OtherSpace()
	base := h.Base(to)
	limit := h.Limit(to)

	m.sb.Reset(base, base)
	if m.cfg.MutatorOps > 0 && (m.mut == nil || m.mutBuiltin) {
		// Config-driven concurrent mode: attach the built-in churn mutator.
		// The test-only scripted driver, when present, wins.
		ch := newChurnState(m.heap, m.cfg)
		m.mut = newMutCore(m, ch.drive, m.cfg.MutatorPeriod)
		m.mut.churn = ch
		m.mutBuiltin = true
	}
	ports := m.cfg.Cores
	if m.mut != nil {
		ports++ // the concurrent mutator uses its own set of memory ports
	}
	m.mem.AttachCores(ports)
	if m.cfg.NUMADomains > 0 && m.cfg.NUMAPlacement == PlacementLocal {
		// Locality-aware placement: the tospace is allocated out of
		// per-domain regions, so evacuation and scan traffic to it is local
		// to every core.
		m.mem.SetLocalWindow(base, limit)
	} else {
		m.mem.SetLocalWindow(0, 0)
	}
	m.mutStarted = false
	m.fifo.Reset()
	m.hc.Reset()
	if m.strides != nil {
		m.strides.Reset()
	}
	m.scanFrameValid = false
	m.scanFrameHdr = 0
	m.scanOff = 0
	m.toLimit = limit
	m.fifoDrops = 0
	m.cycle = 0
	m.err = nil

	if len(m.coreBuf) != m.cfg.Cores {
		m.coreBuf = make([]core, m.cfg.Cores)
		m.ffKinds = make([]ffStall, m.cfg.Cores)
	}
	for i := range m.coreBuf {
		c := &m.coreBuf[i]
		*c = core{id: i, m: m} // St == sIdle
		if i == 0 {
			if m.cfg.StartupCycles > 0 {
				c.St = sStartup
				c.StartupLeft = m.cfg.StartupCycles
			} else {
				c.St = sRoots
				c.InRoots = true
			}
		}
	}
	m.resetAwake()
	m.doneCount = 0
	m.ffJumps = 0
	m.ffSkipped = 0
	m.microSleep = !m.probing() && m.fastForwardable()

	m.maxCycles = m.cfg.MaxCycles
	if m.maxCycles <= 0 {
		// Generous livelock guard: even fully serialized, a collection
		// processes at most one word per a few dozen cycles at the default
		// memory latency. The per-word allowance scales with the worst
		// latency one access can see, so a latency-bound configuration is
		// not mistaken for a livelock; at the default latency the factor
		// is exactly 1.
		base := int64(m.cfg.MemLatency)
		if base <= 0 {
			base = mem.DefaultLatency
		}
		worst := base + int64(m.cfg.ExtraMemLatency) + int64(m.cfg.NUMARemotePenalty)
		m.maxCycles = 1_000_000 + 200*int64(h.SemiWords())*max(worst, mem.DefaultLatency)/mem.DefaultLatency
	}
	m.scanStart = -1
	m.scanEnd = -1
	m.emptyCycles = 0
	m.lastWork = 0
	m.phase = phaseRunning
}

// StepCycle advances the collection by one simulated clock cycle (or, with
// fast-forward enabled, by one provably-dead stretch of cycles). It reports
// done once the collection has terminated; the caller then obtains the
// statistics from FinishCollect. Between StepCycle calls the machine state
// is self-contained, which is the boundary Snapshot captures.
func (m *Machine) StepCycle() (done bool, err error) {
	switch m.phase {
	case phaseIdle:
		return false, fmt.Errorf("machine: StepCycle without BeginCollect")
	case phaseDone:
		return true, nil
	}
	if m.err != nil {
		return false, m.err
	}

	m.cycle++
	if m.cycle > m.maxCycles {
		m.failf("machine: collection exceeded %d cycles (livelock?)", m.maxCycles)
		return false, m.err
	}
	m.emptyObserved = false
	// The mutator port steps before the GC cores so that any frame it
	// publishes this cycle is visible to the termination check, and it
	// only starts once Core 1 has forwarded the roots (the brief
	// stop-the-world window at the start of the cycle).
	if m.mut != nil && m.mutStarted {
		m.mut.step(m.scanEnd >= 0)
		if m.err != nil {
			return false, m.err
		}
	}
	if m.nextWake() <= m.cycle {
		m.wakeDue()
	}
	// Sleeping cores are skipped: their stall cycles were added when they
	// went to sleep. The awake cores step in ascending index order, which is
	// the fixed arbitration order of the lock and barrier micro-operations.
	for s := m.awake; s != 0; s &= s - 1 {
		m.coreBuf[bits.TrailingZeros64(s)].step()
	}
	if m.err != nil {
		return false, m.err
	}
	if c0 := &m.coreBuf[0]; m.scanStart < 0 && !c0.InRoots && c0.St != sStartup && c0.St != sRoots {
		m.scanStart = m.cycle
		m.mutStarted = true
	}
	if m.scanEnd < 0 && m.emptyObserved {
		m.emptyCycles++
	}
	m.mem.Tick()
	if m.microSleep {
		m.sleepAccepted()
	}

	if m.scanEnd < 0 && m.allDone() {
		m.scanEnd = m.cycle
	}
	if m.scanEnd >= 0 && m.mem.Drained() && (m.mut == nil || m.mut.idle()) {
		m.phase = phaseDone
		return true, nil
	}
	if m.probing() {
		// Monitoring samples signals on every cycle, so tracing forces
		// full per-cycle stepping (no fast-forward).
		m.fireProbes()
	} else if m.fastForwardable() {
		m.fastForward(m.maxCycles, m.scanEnd, &m.emptyCycles)
	}
	return false, nil
}

// sleepAccepted puts to sleep every waiting core whose load the memory Tick
// of this cycle accepted. The load's completion cycle is fixed at
// acceptance, so the core's remaining stall is known: it is added to the
// counter now, and the cycle loop skips the core until the step that takes
// the data. The memory clock equals m.cycle after the Tick and the load
// completes in the tick of cycle doneAt, so the steps of cycles m.cycle+1
// .. doneAt would each only count one stall cycle — d = doneAt − m.cycle of
// them — and the step of cycle m.cycle+1+d takes the data. With d <= 1
// there is no step to save, and the core keeps polling. The accounting is
// arithmetic identical to stepping through every waiting cycle; like the
// event-driven fast-forward it is off under a probe, a concurrent mutator,
// the cache model or NoFastForward (m.microSleep), and a core then polls
// its load every cycle.
func (m *Machine) sleepAccepted() {
	now := m.mem.Cycle()
	for _, a := range m.mem.AcceptedLoads() {
		d := a.DoneAt - now
		if d <= 1 {
			continue
		}
		// An issued load leaves its core in the matching wait state until
		// the core takes the data; only such a core may skip its polls.
		c := &m.coreBuf[a.Core]
		switch {
		case a.Port == mem.HeaderLoad && c.waitsOnHeaderLoad():
			c.Stats.HeaderLoadStall += d
		case a.Port == mem.BodyLoad && c.waitsOnBodyLoad():
			c.Stats.BodyLoadStall += d
		default:
			continue
		}
		m.sleep(c, m.cycle+1+d)
	}
}

// sleep removes c from the awake set until cycle until, inserting it into
// sleepQ behind every sleeper that wakes no later. Under the flat memory
// model every load has the same latency, so a new sleeper goes to the back.
func (m *Machine) sleep(c *core, until int64) {
	c.SleepUntil = until
	m.awake &^= 1 << c.id
	i := m.sleepN
	for ; i > 0; i-- {
		prev := &m.sleepQ[(m.sleepHead+i-1)&(MaxCores-1)]
		if prev.at <= until {
			break
		}
		m.sleepQ[(m.sleepHead+i)&(MaxCores-1)] = *prev
	}
	m.sleepQ[(m.sleepHead+i)&(MaxCores-1)] = wakeEntry{until, c.id}
	m.sleepN++
}

// nextWake returns the earliest SleepUntil among the sleeping cores, or
// ffInfinity when none sleeps.
func (m *Machine) nextWake() int64 {
	if m.sleepN == 0 {
		return ffInfinity
	}
	return m.sleepQ[m.sleepHead].at
}

// wakeDue returns to the awake set every sleeper whose SleepUntil has been
// reached.
func (m *Machine) wakeDue() {
	for m.nextWake() <= m.cycle {
		m.awake |= 1 << m.sleepQ[m.sleepHead].core
		m.sleepHead = (m.sleepHead + 1) & (MaxCores - 1)
		m.sleepN--
	}
}

// resetAwake rebuilds the awake set and sleepQ from the cores' SleepUntil
// registers (BeginCollect and RestoreMachine).
func (m *Machine) resetAwake() {
	m.awake, m.sleepHead, m.sleepN = 0, 0, 0
	for i := range m.coreBuf {
		if c := &m.coreBuf[i]; c.SleepUntil > m.cycle {
			m.sleep(c, c.SleepUntil)
		} else {
			m.awake |= 1 << i
		}
	}
}

// StepCycles advances the collection until at least n more clock cycles
// have elapsed (fast-forward jumps may overshoot), the collection
// terminates, or an error occurs.
func (m *Machine) StepCycles(n int64) (done bool, err error) {
	target := m.cycle + n
	for m.cycle < target {
		done, err = m.StepCycle()
		if done || err != nil {
			return done, err
		}
	}
	return false, nil
}

// FinishCollect completes a terminated collection: it validates the final
// free pointer, flips the heap, and returns the collection statistics.
func (m *Machine) FinishCollect() (Stats, error) {
	if m.phase != phaseDone {
		if m.err != nil {
			return Stats{}, m.err
		}
		return Stats{}, fmt.Errorf("machine: FinishCollect before the collection terminated")
	}
	h := m.heap
	to := h.OtherSpace()
	base := h.Base(to)
	limit := h.Limit(to)

	finalFree := m.sb.Free()
	if finalFree > limit {
		return Stats{}, fmt.Errorf("machine: free pointer %d overran tospace limit %d", finalFree, limit)
	}

	st := Stats{
		Cycles:              m.cycle + max(m.cfg.ShutdownCycles, 0),
		EmptyWorklistCycles: m.emptyCycles,
		PerCore:             make([]CoreStats, m.cfg.Cores),
		FIFODrops:           m.fifoDrops,
		FIFOMaxDepth:        m.fifo.MaxDepth,
		HeaderCacheHits:     m.hc.Hits,
		HeaderCacheMisses:   m.hc.Misses,
		FinalFree:           finalFree,
		LiveWords:           int64(finalFree - base),
		Mem:                 m.mem.Stats(),
		Sync:                m.sb.Stats(),
		Config:              m.cfg,
	}
	if m.scanStart >= 0 && m.scanEnd >= m.scanStart {
		st.ScanCycles = m.scanEnd - m.scanStart
	}
	for i := range m.coreBuf {
		c := &m.coreBuf[i]
		st.PerCore[i] = c.Stats
		st.LiveObjects += c.Stats.ObjectsScanned
	}

	if m.mut != nil {
		ms := m.mut.Stats
		if m.scanEnd >= 0 {
			last := m.lastWork
			if last < m.scanStart {
				last = m.scanStart
			}
			ms.MarkTermCycles = m.scanEnd - last
		}
		m.countFloating(&ms, base, finalFree)
		m.mut.Stats = ms
		st.Mutator = &ms
	}

	h.FinishCycle(finalFree)
	m.phase = phaseIdle
	return st, nil
}

// countFloating attributes floating garbage to the write barrier: shaded
// objects that end the cycle unreachable from both the roots and the
// mutator's registers survived only because the barrier retained them. The
// walk is untimed bookkeeping over the (not yet flipped) tospace image.
func (m *Machine) countFloating(ms *MutatorStats, base, finalFree object.Addr) {
	if len(m.mut.Shaded) == 0 {
		return
	}
	h := m.heap
	reach := make(map[object.Addr]bool)
	var stack []object.Addr
	push := func(a object.Addr) {
		if a != object.NilPtr && a >= base && a < finalFree && !reach[a] {
			reach[a] = true
			stack = append(stack, a)
		}
	}
	for i := 0; i < h.NumRoots(); i++ {
		push(h.Root(i))
	}
	for _, r := range m.mut.Regs {
		push(r)
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		hd := h.Header(a)
		for i := 0; i < hd.Pi; i++ {
			push(h.Ptr(a, i))
		}
	}
	for _, s := range m.mut.Shaded {
		if s >= base && s < finalFree && !reach[s] {
			hd := h.Header(s)
			ms.FloatingObjects++
			ms.FloatingWords += int64(object.Size(hd.Pi, hd.Delta))
		}
	}
}

// Resume drives a restored (or suspended) collection to completion and
// returns its statistics, exactly as the tail of Collect would have.
func (m *Machine) Resume() (Stats, error) {
	for {
		done, err := m.StepCycle()
		if err != nil {
			return Stats{}, err
		}
		if done {
			break
		}
	}
	return m.FinishCollect()
}

// fastForwardable reports whether the configuration lets the cycle loop
// skip dead cycles: fast-forward jumps in StepCycle and core micro-sleep.
// Probes, which must see every cycle, are checked by the callers. The
// mutator and the cache model structurally disable both: the mutator's
// next operation and a stalled port's wake-up (which depends on MSHR
// occupancy and tag state) are not something a jump can reproduce exactly.
func (m *Machine) fastForwardable() bool {
	return !m.NoFastForward && m.mut == nil && m.cfg.L1Sets == 0
}

// allDone reports whether every core has detected termination.
func (m *Machine) allDone() bool {
	return m.doneCount == m.cfg.Cores
}

// coreStateName maps micro-states to short names for traces.
func coreStateName(s coreState) string {
	switch s {
	case sIdle:
		return "idle"
	case sStartup:
		return "startup"
	case sRoots:
		return "roots"
	case sGrabScan:
		return "grab-scan"
	case sScanHdrIssue, sScanHdrWait:
		return "scan-hdr"
	case sPtrLoad, sPtrLoadWait:
		return "ptr-load"
	case sChildPeekIssue, sChildPeekWait:
		return "peek"
	case sChildLock:
		return "hdr-lock"
	case sChildHdrIssue, sChildHdrWait:
		return "child-hdr"
	case sFreeAcquire:
		return "free-lock"
	case sEvacGrayStore, sEvacFwdStore:
		return "evacuate"
	case sPtrStore:
		return "ptr-store"
	case sDataLoad, sDataWait, sDataStore:
		return "copy-data"
	case sBlacken:
		return "blacken"
	case sDone:
		return "done"
	default:
		return "?"
	}
}
