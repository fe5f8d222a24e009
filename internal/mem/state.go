package mem

import (
	"fmt"

	"hwgc/internal/object"
)

// The live scheduler keeps its load buffers, queued and in-flight stores and
// cache lines as the State's own element types (LoadBuffer, StoreReq,
// InflightStore, CacheLineState), so CaptureState copies them out — the
// store and completion rings in FIFO order — and RestoreState validates and
// copies them back in.
//
// The snapshot holds only the primary state: the clock, arbitration
// pointer, per-core buffers and queues, the in-flight split transactions,
// and the load-completion order. The derived occupancy counters
// (unaccepted, storeQueued, validLoads, acceptedLoads, mshrInUse), the
// hashed pending-store counters (hdrCnt, stCnt) and the waiting bitmaps
// (waiting, waitMask) are all recomputed from it on restore, so a snapshot
// cannot encode an inconsistent scheduler.

// CoreIOState is the per-core slice of the scheduler state: the two load
// buffers and the two write-behind store queues (in FIFO order).
type CoreIOState struct {
	HeaderLoad   LoadBuffer
	BodyLoad     LoadBuffer
	HeaderStores []StoreReq
	BodyStores   []StoreReq
}

// State is the complete serializable state of the memory scheduler
// mid-collection. Completions holds the classDRAM load-completion queue
// front to back; each entry encodes doneAt<<16 | core<<1 | portIdx exactly
// as the live queue does. RemoteComp, L1Comp and L2Comp are the completion
// queues of the other latency classes (NUMA-remote, L1 hit, L2 hit), empty
// unless the memory hierarchy is enabled. The MSHR occupancy is derived
// state — every valid, not-ready load of a DRAM class holds one — and is
// recomputed on restore.
type State struct {
	Cycle       int64
	RR          int
	Seq         int64
	Stats       Stats
	BusyUntil   []int64
	Cores       []CoreIOState
	Inflight    []InflightStore
	Completions []int64

	RemoteComp []int64
	L1Comp     []int64
	L2Comp     []int64
	LRUTick    int64
	L1         [][]CacheLineState
	L2         []CacheLineState
}

// at returns the i-th queued entry in FIFO order.
func (r *intRing) at(i int) int64 {
	p := r.head + i
	if p >= len(r.buf) {
		p -= len(r.buf)
	}
	return r.buf[p]
}

func captureRing(r *intRing) []int64 {
	var out []int64
	for i := 0; i < r.n; i++ {
		out = append(out, r.at(i))
	}
	return out
}

func captureQueue(q *storeRing) []StoreReq {
	if q.n == 0 {
		return nil
	}
	out := make([]StoreReq, q.n)
	for i := range out {
		out[i] = *q.at(i)
	}
	return out
}

// CaptureState returns a deep copy of the scheduler's state. The backing
// word array is owned by the heap and captured there, not here.
func (m *Memory) CaptureState() *State {
	st := &State{
		Cycle:     m.cycle,
		RR:        m.rr,
		Seq:       m.seq,
		Stats:     m.stats,
		BusyUntil: append([]int64(nil), m.busyUntil...),
		Cores:     make([]CoreIOState, len(m.bufs)),
	}
	for i := range m.bufs {
		st.Cores[i] = CoreIOState{
			HeaderLoad:   m.bufs[i][HeaderLoad],
			BodyLoad:     m.bufs[i][BodyLoad],
			HeaderStores: captureQueue(&m.storeQ[i][storeIdx(HeaderStore)]),
			BodyStores:   captureQueue(&m.storeQ[i][storeIdx(BodyStore)]),
		}
	}
	st.Inflight = append([]InflightStore(nil), m.inflight[m.inflightHead:]...)
	st.Completions = captureRing(&m.completions)
	if m.hier {
		st.RemoteComp = captureRing(&m.extraComp[classRemote-1])
		st.L1Comp = captureRing(&m.extraComp[classL1-1])
		st.L2Comp = captureRing(&m.extraComp[classL2-1])
	}
	if m.l1Sets > 0 {
		st.LRUTick = m.lruTick
		st.L1 = make([][]CacheLineState, len(m.l1))
		for i := range m.l1 {
			st.L1[i] = append([]CacheLineState(nil), m.l1[i]...)
		}
		st.L2 = append([]CacheLineState(nil), m.l2...)
	}
	return st
}

// RestoreState overwrites the scheduler's state from a captured state and
// rebuilds every derived counter. AttachCores must have been called for the
// same core count first (it has zeroed the store counters and sized the
// buffers).
func (m *Memory) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("mem: nil state")
	}
	n := len(m.bufs)
	if len(st.Cores) != n {
		return fmt.Errorf("mem: state for %d cores, scheduler has %d", len(st.Cores), n)
	}
	if len(st.BusyUntil) != len(m.busyUntil) {
		return fmt.Errorf("mem: state has %d bank timers, scheduler has %d", len(st.BusyUntil), len(m.busyUntil))
	}
	size := object.Addr(len(m.data))
	checkAddr := func(what string, a object.Addr) error {
		if a >= size {
			return fmt.Errorf("mem: state %s address %d outside memory (%d words)", what, a, size)
		}
		return nil
	}
	for i, c := range st.Cores {
		if len(c.HeaderStores) > m.sqDepth || len(c.BodyStores) > m.sqDepth {
			return fmt.Errorf("mem: state core %d store queue exceeds depth %d", i, m.sqDepth)
		}
		for _, b := range []LoadBuffer{c.HeaderLoad, c.BodyLoad} {
			if b.Valid {
				if err := checkAddr("load", b.Addr); err != nil {
					return err
				}
			}
		}
		for _, s := range append(append([]StoreReq(nil), c.HeaderStores...), c.BodyStores...) {
			if err := checkAddr("store", s.Addr); err != nil {
				return err
			}
		}
	}
	var lastDone int64
	for _, s := range st.Inflight {
		if err := checkAddr("inflight store", s.Addr); err != nil {
			return err
		}
		if s.DoneAt < lastDone {
			return fmt.Errorf("mem: state inflight stores not ordered by completion cycle")
		}
		lastDone = s.DoneAt
	}
	checkComp := func(what string, comp []int64, ring *intRing) error {
		if ring == nil {
			if len(comp) > 0 {
				return fmt.Errorf("mem: state has %s load completions but the model is disabled", what)
			}
			return nil
		}
		if len(comp) > len(ring.buf) {
			return fmt.Errorf("mem: state has %d %s load completions, capacity is %d",
				len(comp), what, len(ring.buf))
		}
		var last int64
		for _, e := range comp {
			if ci := int(e >> 1 & 0x7fff); ci >= n {
				return fmt.Errorf("mem: state %s load completion for core %d, have %d", what, ci, n)
			}
			if e>>16 < last {
				return fmt.Errorf("mem: state %s load completions not ordered by completion cycle", what)
			}
			last = e >> 16
		}
		return nil
	}
	ringOrNil := func(cls uint8, on bool) *intRing {
		if !on {
			return nil
		}
		return m.ring(cls)
	}
	if err := checkComp("dram", st.Completions, &m.completions); err != nil {
		return err
	}
	if err := checkComp("remote", st.RemoteComp, ringOrNil(classRemote, m.domains > 0)); err != nil {
		return err
	}
	if err := checkComp("l1-hit", st.L1Comp, ringOrNil(classL1, m.l1Sets > 0)); err != nil {
		return err
	}
	if err := checkComp("l2-hit", st.L2Comp, ringOrNil(classL2, m.l1Sets > 0)); err != nil {
		return err
	}
	for i, c := range st.Cores {
		for _, b := range []LoadBuffer{c.HeaderLoad, c.BodyLoad} {
			if !b.Valid {
				continue
			}
			switch {
			case b.Class >= numClasses:
				return fmt.Errorf("mem: state core %d load has completion class %d", i, b.Class)
			case b.Class == classRemote && m.domains <= 0,
				(b.Class == classL1 || b.Class == classL2) && m.l1Sets <= 0:
				return fmt.Errorf("mem: state core %d load class %d but the model is disabled", i, b.Class)
			}
		}
	}
	if m.l1Sets > 0 {
		if len(st.L1) != n {
			return fmt.Errorf("mem: state has %d L1 caches, scheduler has %d cores", len(st.L1), n)
		}
		for i := range st.L1 {
			if len(st.L1[i]) != m.l1Sets*m.l1Ways {
				return fmt.Errorf("mem: state core %d L1 has %d lines, want %d",
					i, len(st.L1[i]), m.l1Sets*m.l1Ways)
			}
		}
		if len(st.L2) != m.l2Sets*m.l2Ways {
			return fmt.Errorf("mem: state L2 has %d lines, want %d", len(st.L2), m.l2Sets*m.l2Ways)
		}
	} else if len(st.L1) > 0 || len(st.L2) > 0 {
		return fmt.Errorf("mem: state carries cache tags but the cache model is disabled")
	}

	m.cycle = st.Cycle
	m.rr = st.RR
	if n > 0 {
		m.rr %= n
		if m.rr < 0 {
			m.rr += n
		}
	}
	m.seq = st.Seq
	m.stats = st.Stats
	copy(m.busyUntil, st.BusyUntil)

	restoreBuffer := func(b *LoadBuffer, s LoadBuffer) {
		*b = s
		if s.Valid {
			m.validLoads++
			if !s.Accepted {
				m.unaccepted++
			} else if !s.Ready {
				m.acceptedLoads++
			}
			if m.l1Sets > 0 && !s.Ready && s.Class < classL1 {
				m.mshrInUse++
			}
		}
	}
	restoreQueue := func(q *storeRing, reqs []StoreReq, header bool) {
		q.head, q.n = 0, 0
		for _, s := range reqs {
			q.push(s)
			m.unaccepted++
			m.storeQueued++
			if header {
				m.hdrCnt[cntSlot(s.Addr)] += hdrCntQueuedOne
			}
			if m.l1Sets > 0 {
				m.stCnt[cntSlot(s.Addr)]++
			}
		}
	}

	m.unaccepted, m.storeQueued, m.validLoads, m.acceptedLoads = 0, 0, 0, 0
	m.mshrInUse = 0
	clear(m.waiting)
	clear(m.waitMask)
	for i, c := range st.Cores {
		restoreBuffer(&m.bufs[i][HeaderLoad], c.HeaderLoad)
		restoreBuffer(&m.bufs[i][BodyLoad], c.BodyLoad)
		restoreQueue(&m.storeQ[i][storeIdx(HeaderStore)], c.HeaderStores, true)
		restoreQueue(&m.storeQ[i][storeIdx(BodyStore)], c.BodyStores, false)
		var w uint8
		for _, p := range loadPorts {
			if b := &m.bufs[i][p]; b.Valid && !b.Accepted {
				w |= 1 << p
			}
		}
		if len(c.HeaderStores) > 0 {
			w |= 1 << HeaderStore
		}
		if len(c.BodyStores) > 0 {
			w |= 1 << BodyStore
		}
		if m.waiting[i] = w; w != 0 {
			m.waitMask[i>>6] |= 1 << (i & 63)
		}
	}
	m.inflight = m.inflight[:0]
	m.inflightHead = 0
	m.inflight = append(m.inflight, st.Inflight...)
	for _, s := range st.Inflight {
		if s.Header {
			m.hdrCnt[cntSlot(s.Addr)] += hdrCntInflightOne
		}
		if m.l1Sets > 0 {
			m.stCnt[cntSlot(s.Addr)]++
		}
	}
	restoreRing := func(r *intRing, comp []int64) {
		r.head, r.n = 0, 0
		for _, e := range comp {
			r.push(e)
		}
	}
	restoreRing(&m.completions, st.Completions)
	total := m.completions.n
	if m.hier {
		restoreRing(&m.extraComp[classRemote-1], st.RemoteComp)
		restoreRing(&m.extraComp[classL1-1], st.L1Comp)
		restoreRing(&m.extraComp[classL2-1], st.L2Comp)
		for i := range m.extraComp {
			total += m.extraComp[i].n
		}
	}
	if total != m.acceptedLoads {
		return fmt.Errorf("mem: state has %d load completions for %d accepted loads",
			total, m.acceptedLoads)
	}
	if m.l1Sets > 0 {
		m.lruTick = st.LRUTick
		for i := range m.l1 {
			copy(m.l1[i], st.L1[i])
		}
		copy(m.l2, st.L2)
	}
	return nil
}
