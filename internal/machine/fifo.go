package machine

import "hwgc/internal/object"

// headerFIFO is the on-chip header FIFO of Section V-D.
//
// In the parallel Cheney algorithm, the scan pointer can only be advanced
// after the size of the object at scan is known, i.e. after its gray
// tospace header has been read — so these header reads sit inside the scan
// critical section and can become a bottleneck. Because gray tospace headers
// are read in exactly the same order as they are written, the coprocessor
// buffers them in a FIFO: as long as the number of gray objects does not
// exceed its capacity, no memory accesses are required to read them.
//
// On overflow an entry is simply not buffered (it is still stored to memory
// by the evacuating core). Entries are tagged with their tospace frame
// address: a pop only hits when the head entry's address matches the scan
// pointer, so dropped entries naturally turn into FIFO misses that fall back
// to a memory header load.
//
// The live FIFO keeps its entries in a ring: Entries is the ring's backing
// array and its n live entries start at index head, wrapping at the end.
// The ring grows by doubling only while it is full, up to the FIFO's
// capacity, so however many headers a collection pushes its storage stays
// within FIFOCapacity entries and, past its first fifoMinRing, within twice
// the deepest occupancy seen.
// Snapshot unrolls the live entries head first.
type headerFIFO struct {
	FIFOState
	head     int
	n        int
	cap      int
	disabled bool
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

// fifoMinRing is the ring's first allocation, in entries.
const fifoMinRing = 64

func newHeaderFIFO(capacity int, disabled bool) *headerFIFO {
	return &headerFIFO{cap: capacity, disabled: disabled}
}

// Reset empties the FIFO and its statistics for a new collection cycle,
// keeping the ring's storage.
func (f *headerFIFO) Reset() {
	f.FIFOState = FIFOState{Entries: f.Entries}
	f.head, f.n = 0, 0
}

// Len returns the number of buffered entries.
func (f *headerFIFO) Len() int { return f.n }

// Push buffers the gray header written to the tospace frame at addr. It
// reports whether the entry was dropped because the FIFO was full or
// disabled.
func (f *headerFIFO) Push(addr object.Addr, hdr object.Word) (dropped bool) {
	if f.disabled || f.n >= f.cap {
		f.Drops++
		return true
	}
	if f.n == len(f.Entries) {
		f.grow()
	}
	p := f.head + f.n
	if p >= len(f.Entries) {
		p -= len(f.Entries)
	}
	f.Entries[p] = FIFOEntryState{addr, hdr}
	if f.n++; f.n > f.MaxDepth {
		f.MaxDepth = f.n
	}
	return false
}

// grow doubles the full ring, capped at the FIFO's capacity, moving the
// live entries to the front of the new array in order.
func (f *headerFIFO) grow() {
	size := min(max(2*len(f.Entries), fifoMinRing), f.cap)
	f.Entries = f.live(make([]FIFOEntryState, size))
	f.head = 0
}

// live copies the live entries, head first, into the front of dst and
// returns dst.
func (f *headerFIFO) live(dst []FIFOEntryState) []FIFOEntryState {
	k := copy(dst, f.Entries[f.head:min(f.head+f.n, len(f.Entries))])
	copy(dst[k:], f.Entries[:f.n-k])
	return dst
}

// PopIf pops and returns the head entry when its tag matches addr (a FIFO
// hit). Otherwise it reports a miss and the caller must load the header from
// memory.
func (f *headerFIFO) PopIf(addr object.Addr) (object.Word, bool) {
	if f.n > 0 && f.Entries[f.head].Addr == addr {
		hdr := f.Entries[f.head].Hdr
		if f.n--; f.n == 0 {
			f.head = 0
		} else if f.head++; f.head == len(f.Entries) {
			f.head = 0
		}
		f.Hits++
		return hdr, true
	}
	f.Misses++
	return 0, false
}
