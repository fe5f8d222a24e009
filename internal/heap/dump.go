package heap

import (
	"fmt"
	"io"

	"hwgc/internal/object"
)

// SpaceStats summarizes the contents of the current semispace.
type SpaceStats struct {
	Objects      int // objects allocated (including unreachable ones)
	Words        int // words used
	PointerSlots int
	DataWords    int
	LargestObj   int // words
	Roots        int // non-nil root slots
}

// Stats walks the current space and summarizes it.
func (h *Heap) Stats() SpaceStats {
	var s SpaceStats
	h.Objects(h.st.Cur, h.st.Alloc, func(base object.Addr, hdr object.Word) bool {
		s.Objects++
		size := object.SizeWords(hdr)
		s.Words += size
		s.PointerSlots += object.Pi(hdr)
		s.DataWords += object.Delta(hdr)
		if size > s.LargestObj {
			s.LargestObj = size
		}
		return true
	})
	for _, r := range h.st.Roots {
		if r != object.NilPtr {
			s.Roots++
		}
	}
	return s
}

// Dump writes a human-readable listing of the current space — every object
// with its address, shape, GC bits, pointer slots and data words — plus the
// root set. Intended for debugging small heaps and for golden tests; the
// output is deterministic.
func (h *Heap) Dump(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "heap: space %d, %d/%d words used, %d roots\n",
		h.st.Cur, h.UsedWords(), h.st.Semi, len(h.st.Roots)); err != nil {
		return err
	}
	for i, r := range h.st.Roots {
		if _, err := fmt.Fprintf(w, "root[%d] = %d\n", i, r); err != nil {
			return err
		}
	}
	var derr error
	h.Objects(h.st.Cur, h.st.Alloc, func(base object.Addr, hdr object.Word) bool {
		hd := object.Decode(hdr)
		flags := ""
		if hd.Mark {
			flags += " MARK"
		}
		if hd.Gray {
			flags += " GRAY"
		}
		if _, derr = fmt.Fprintf(w, "obj @%d π=%d δ=%d%s\n", base, hd.Pi, hd.Delta, flags); derr != nil {
			return false
		}
		for i := 0; i < hd.Pi; i++ {
			if _, derr = fmt.Fprintf(w, "  ptr[%d] = %d\n", i, h.Ptr(base, i)); derr != nil {
				return false
			}
		}
		for i := 0; i < hd.Delta; i++ {
			if _, derr = fmt.Fprintf(w, "  data[%d] = %#x\n", i, h.Data(base, i)); derr != nil {
				return false
			}
		}
		return true
	})
	return derr
}
