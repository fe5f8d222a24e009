package heap

import (
	"fmt"

	"hwgc/internal/object"
)

// State is the complete state of a Heap: the raw word array (both
// semispaces plus the reserved nil word), the space roles, the bump pointer,
// and the root set. A live Heap keeps its state in a State, so a snapshot
// is a deep copy of it, and a State round-trips through FromState to a heap
// that behaves identically.
type State struct {
	Semi     int // words per semispace
	Cur      int // index (0/1) of the space the mutator allocates in
	Alloc    object.Addr
	AllocCnt int64
	Roots    []object.Addr
	Mem      []object.Word
}

// clone returns a copy of s that shares no slice with it.
func (s *State) clone() *State {
	c := *s
	c.Roots = append([]object.Addr(nil), s.Roots...)
	c.Mem = append([]object.Word(nil), s.Mem...)
	return &c
}

// CaptureState returns a deep copy of the heap's state.
func (h *Heap) CaptureState() *State { return h.st.clone() }

// FromState reconstructs a heap from a copy of a captured state, validating
// the structural invariants (sizes, space index, pointer bounds) so a
// corrupt or adversarial snapshot cannot produce a heap that panics on
// first use.
func FromState(s *State) (*Heap, error) {
	if s == nil {
		return nil, fmt.Errorf("heap: nil state")
	}
	if s.Semi < object.HeaderWords+1 {
		return nil, fmt.Errorf("heap: state semispace %d too small", s.Semi)
	}
	if len(s.Mem) != 1+2*s.Semi {
		return nil, fmt.Errorf("heap: state memory has %d words, want %d", len(s.Mem), 1+2*s.Semi)
	}
	if s.Cur != 0 && s.Cur != 1 {
		return nil, fmt.Errorf("heap: state current space %d out of range", s.Cur)
	}
	h := &Heap{st: *s.clone()}
	if s.Alloc < h.Base(s.Cur) || s.Alloc > h.Limit(s.Cur) {
		return nil, fmt.Errorf("heap: state alloc pointer %d outside space %d", s.Alloc, s.Cur)
	}
	for i, r := range h.st.Roots {
		if int(r) >= len(h.st.Mem) {
			return nil, fmt.Errorf("heap: state root %d (%d) outside memory", i, r)
		}
	}
	return h, nil
}
