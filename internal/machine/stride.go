package machine

import "hwgc/internal/object"

// strideTable is the on-chip bookkeeping for sub-object (stride) work
// distribution — the second improvement proposed in the paper's conclusions
// (Section VII): "distribute work at a finer granularity than object-level
// granularity, e.g. at the granularity of cache lines".
//
// With strides enabled, the unit of work popped under the scan lock is a
// bounded range of body words of the object at scan rather than the whole
// object. Scanning a large object is thereby shared by several cores, which
// restores scalability on workloads whose object-level parallelism is
// limited by a few big objects (the compress pattern).
//
// The table tracks, per object frame with outstanding strides, how many
// strides are still being processed and whether the final stride has been
// dispatched; the core that completes the last stride blackens the object.
// At most one stride per core is in process, so the number of live entries
// is bounded by the core count; the table is dimensioned at twice that and
// dispatching stalls (holding the scan lock) when it is full, exactly as a
// full hardware CAM would.
type strideTable struct {
	entries []StrideEntryState
}

// StrideEntryState is one stride-table CAM entry.
type StrideEntryState struct {
	Used        bool
	ObjTo       object.Addr
	Attrs       object.Word
	Outstanding int
	Final       bool
}

func newStrideTable(cores int) *strideTable {
	return &strideTable{entries: make([]StrideEntryState, 2*cores)}
}

// Reset clears the table for a new collection cycle.
func (t *strideTable) Reset() {
	clear(t.entries)
}

// Live returns the number of occupied entries (tracing and tests).
func (t *strideTable) Live() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Used {
			n++
		}
	}
	return n
}

// Dispatch registers one stride of the object frame at objTo. final marks
// the object's last stride. It reports false when the table is full and the
// dispatching core must stall.
func (t *strideTable) Dispatch(objTo object.Addr, attrs object.Word, final bool) bool {
	free := -1
	for i := range t.entries {
		e := &t.entries[i]
		if e.Used && e.ObjTo == objTo {
			e.Outstanding++
			if final {
				e.Final = true
			}
			return true
		}
		if !e.Used && free < 0 {
			free = i
		}
	}
	if free < 0 {
		return false
	}
	t.entries[free] = StrideEntryState{Used: true, ObjTo: objTo, Attrs: attrs, Outstanding: 1, Final: final}
	return true
}

// Complete retires one stride of the frame at objTo and reports whether it
// was the object's last outstanding stride (the caller then blackens the
// object).
func (t *strideTable) Complete(objTo object.Addr) bool {
	for i := range t.entries {
		e := &t.entries[i]
		if e.Used && e.ObjTo == objTo {
			e.Outstanding--
			if e.Final && e.Outstanding == 0 {
				*e = StrideEntryState{}
				return true
			}
			if e.Outstanding < 0 {
				panic("machine: stride completion underflow")
			}
			return false
		}
	}
	panic("machine: stride completion for unknown frame")
}
