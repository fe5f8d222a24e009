// Package gcalgo provides an untimed reference implementation of Cheney's
// sequential copying collector (paper Section II) and a verification oracle.
//
// The reference collector is the specification against which every other
// collector in this repository — the simulated multi-core coprocessor and
// the software baseline collectors — is checked: a collection is correct
// when the logical object graph reachable from the roots is preserved
// (same shapes, same data, same wiring), all surviving objects lie compacted
// at the bottom of the new space, and no GC bookkeeping bits remain.
package gcalgo

import (
	"fmt"

	"hwgc/internal/heap"
	"hwgc/internal/object"
)

// Collect runs Cheney's sequential algorithm on h: it flips the semispaces,
// evacuates all objects reachable from the root set into the new space, and
// updates the roots. It returns the number of live objects and words.
func Collect(h *heap.Heap) (liveObjects, liveWords int, err error) {
	to := h.OtherSpace()
	base := h.Base(to)
	limit := h.Limit(to)
	mem := h.Mem()

	scan := base
	free := base

	// evacuate copies the full object at p into tospace (the reference
	// implementation copies eagerly rather than via backlinks; the result
	// is identical) and returns the forwarding pointer.
	evacuate := func(p object.Addr) (object.Addr, error) {
		hdr := mem[p]
		if object.Marked(hdr) {
			return object.Link(hdr), nil
		}
		size := object.Addr(object.SizeWords(hdr))
		if free+size > limit {
			return 0, fmt.Errorf("gcalgo: tospace overflow at free=%d size=%d", free, size)
		}
		dst := free
		free += size
		mem[dst] = object.BlackHeader(hdr)
		mem[dst+1] = 0
		copy(mem[dst+object.HeaderWords:dst+size], mem[p+object.HeaderWords:p+size])
		mem[p] = object.WithMark(hdr, dst)
		liveObjects++
		return dst, nil
	}

	roots := h.Roots()
	for i, r := range roots {
		if r == object.NilPtr {
			continue
		}
		fwd, e := evacuate(r)
		if e != nil {
			return 0, 0, e
		}
		h.SetRoot(i, fwd)
	}

	for scan < free {
		hdr := mem[scan]
		pi := object.Pi(hdr)
		for i := 0; i < pi; i++ {
			slot := object.PtrSlot(scan, i)
			p := object.Addr(mem[slot])
			if p == object.NilPtr {
				continue
			}
			fwd, e := evacuate(p)
			if e != nil {
				return 0, 0, e
			}
			mem[slot] = object.Word(fwd)
		}
		scan += object.Addr(object.SizeWords(hdr))
	}

	h.FinishCycle(free)
	return liveObjects, int(free - base), nil
}

// Node is one object of a logical heap graph. Pointer slots hold node
// indices (-1 for nil).
type Node struct {
	Pi    int
	Delta int
	Ptrs  []int
	Data  []object.Word
}

// Graph is the logical object graph reachable from a heap's roots, in a
// canonical form: nodes are numbered in deterministic breadth-first
// discovery order starting from the roots. Two heaps hold the same logical
// graph exactly when their Graphs are deep-equal, regardless of where the
// collector placed the objects.
type Graph struct {
	Roots []int // node indices, -1 for nil roots
	Nodes []Node
}

// Snapshot extracts the canonical logical graph of h's current space. It
// validates that every traversed pointer refers to an object base within the
// current space.
func Snapshot(h *heap.Heap) (*Graph, error) {
	mem := h.Mem()
	base, alloc := h.Base(h.CurSpace()), h.AllocPtr()

	// index maps each word of [base, alloc) to 0 (not an object base), -1
	// (a base not yet discovered) or i+1 (the base of node i). The same pass
	// counts objects and body words, which bound the BFS's node, queue and
	// slot slabs, so the walk below allocates nothing per object.
	index := make([]int32, alloc-base)
	objs, ptrWords, dataWords := 0, 0, 0
	h.Objects(h.CurSpace(), alloc, func(b object.Addr, w object.Word) bool {
		index[b-base] = -1
		objs++
		ptrWords += object.Pi(w)
		dataWords += object.Delta(w)
		return true
	})
	nodes := make([]Node, 0, objs)
	queue := make([]object.Addr, 0, objs)
	ptrSlab := make([]int, ptrWords)
	dataSlab := make([]object.Word, dataWords)

	// visit returns p's node index (-1 for nil), numbering p if it is new,
	// and false if p is not an object base.
	visit := func(p object.Addr) (int, bool) {
		if p == object.NilPtr {
			return -1, true
		}
		if p < base || p >= alloc {
			return 0, false
		}
		switch x := index[p-base]; {
		case x == 0:
			return 0, false
		case x > 0:
			return int(x - 1), true
		}
		i := len(queue)
		index[p-base] = int32(i + 1)
		queue = append(queue, p)
		return i, true
	}
	const notBase = "gcalgo: %s refers to %d, not a live object base"

	g := &Graph{}
	if roots := h.Roots(); len(roots) > 0 {
		g.Roots = make([]int, len(roots))
		for ri, r := range roots {
			i, ok := visit(r)
			if !ok {
				return nil, fmt.Errorf(notBase, fmt.Sprintf("root %d", ri), r)
			}
			g.Roots[ri] = i
		}
	}

	for qi := 0; qi < len(queue); qi++ {
		b := queue[qi]
		w := mem[b]
		if object.Marked(w) || object.GrayBit(w) {
			return nil, fmt.Errorf("gcalgo: live object at %d still has GC bits set", b)
		}
		// Ptrs and Data stay nil when π or δ is 0, so a Graph deep-equals
		// one built by appending slot by slot.
		n := Node{Pi: object.Pi(w), Delta: object.Delta(w)}
		if n.Pi > 0 {
			n.Ptrs, ptrSlab = ptrSlab[:n.Pi:n.Pi], ptrSlab[n.Pi:]
			for i := range n.Ptrs {
				p := h.Ptr(b, i)
				ci, ok := visit(p)
				if !ok {
					return nil, fmt.Errorf(notBase, fmt.Sprintf("pointer %d of object %d", i, b), p)
				}
				n.Ptrs[i] = ci
			}
		}
		if n.Delta > 0 {
			n.Data, dataSlab = dataSlab[:n.Delta:n.Delta], dataSlab[n.Delta:]
			d := object.DataSlot(b, n.Pi, 0)
			copy(n.Data, mem[d:d+object.Addr(n.Delta)])
		}
		nodes = append(nodes, n)
	}
	if len(nodes) > 0 {
		g.Nodes = nodes
	}
	return g, nil
}

// LiveWords returns the total heap words occupied by the graph's objects.
func (g *Graph) LiveWords() int {
	w := 0
	for _, n := range g.Nodes {
		w += object.Size(n.Pi, n.Delta)
	}
	return w
}

// Equal reports the first difference between two canonical graphs, or nil if
// they are identical.
func (g *Graph) Equal(o *Graph) error {
	if len(g.Roots) != len(o.Roots) {
		return fmt.Errorf("gcalgo: root count differs: %d vs %d", len(g.Roots), len(o.Roots))
	}
	for i := range g.Roots {
		if g.Roots[i] != o.Roots[i] {
			return fmt.Errorf("gcalgo: root %d differs: node %d vs %d", i, g.Roots[i], o.Roots[i])
		}
	}
	if len(g.Nodes) != len(o.Nodes) {
		return fmt.Errorf("gcalgo: node count differs: %d vs %d", len(g.Nodes), len(o.Nodes))
	}
	for i := range g.Nodes {
		a, b := &g.Nodes[i], &o.Nodes[i]
		if a.Pi != b.Pi || a.Delta != b.Delta {
			return fmt.Errorf("gcalgo: node %d shape differs: (π=%d,δ=%d) vs (π=%d,δ=%d)", i, a.Pi, a.Delta, b.Pi, b.Delta)
		}
		for j := range a.Ptrs {
			if a.Ptrs[j] != b.Ptrs[j] {
				return fmt.Errorf("gcalgo: node %d pointer %d differs: %d vs %d", i, j, a.Ptrs[j], b.Ptrs[j])
			}
		}
		for j := range a.Data {
			if a.Data[j] != b.Data[j] {
				return fmt.Errorf("gcalgo: node %d data %d differs: %#x vs %#x", i, j, a.Data[j], b.Data[j])
			}
		}
	}
	return nil
}

// VerifyCollection checks that h (after some collector ran on it) holds
// exactly the logical graph captured in before, that the heap's structural
// invariants hold, and that the space is perfectly compacted (allocation
// pointer equals base plus live words). It is the shared oracle for all
// collectors in this repository.
func VerifyCollection(before *Graph, h *heap.Heap) error {
	if err := h.CheckIntegrity(); err != nil {
		return err
	}
	after, err := Snapshot(h)
	if err != nil {
		return err
	}
	if err := before.Equal(after); err != nil {
		return err
	}
	want := h.Base(h.CurSpace()) + object.Addr(before.LiveWords())
	if h.AllocPtr() != want {
		return fmt.Errorf("gcalgo: imperfect compaction: alloc pointer %d, want %d (live words %d)",
			h.AllocPtr(), want, before.LiveWords())
	}
	return nil
}
