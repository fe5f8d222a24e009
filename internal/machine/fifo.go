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
// The live entries are Entries[head:]; Snapshot writes out only those.
type headerFIFO struct {
	FIFOState
	head     int
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

func newHeaderFIFO(capacity int, disabled bool) *headerFIFO {
	return &headerFIFO{cap: capacity, disabled: disabled}
}

// Reset empties the FIFO and its statistics for a new collection cycle.
func (f *headerFIFO) Reset() {
	f.FIFOState = FIFOState{Entries: f.Entries[:0]}
	f.head = 0
}

// Len returns the number of buffered entries.
func (f *headerFIFO) Len() int { return len(f.Entries) - f.head }

// Push buffers the gray header written to the tospace frame at addr. It
// reports whether the entry was dropped because the FIFO was full or
// disabled.
func (f *headerFIFO) Push(addr object.Addr, hdr object.Word) (dropped bool) {
	if f.disabled || f.Len() >= f.cap {
		f.Drops++
		return true
	}
	f.Entries = append(f.Entries, FIFOEntryState{addr, hdr})
	if d := f.Len(); d > f.MaxDepth {
		f.MaxDepth = d
	}
	return false
}

// PopIf pops and returns the head entry when its tag matches addr (a FIFO
// hit). Otherwise it reports a miss and the caller must load the header from
// memory.
func (f *headerFIFO) PopIf(addr object.Addr) (object.Word, bool) {
	if f.Len() > 0 && f.Entries[f.head].Addr == addr {
		hdr := f.Entries[f.head].Hdr
		f.head++
		if f.head == len(f.Entries) { // reclaim storage when drained
			f.Entries = f.Entries[:0]
			f.head = 0
		} else if f.head >= 1024 && f.head*2 >= len(f.Entries) {
			// Compact once the consumed prefix dominates, bounding the
			// backing array to O(occupancy) rather than O(total pushes).
			n := copy(f.Entries, f.Entries[f.head:])
			f.Entries = f.Entries[:n]
			f.head = 0
		}
		f.Hits++
		return hdr, true
	}
	f.Misses++
	return 0, false
}
