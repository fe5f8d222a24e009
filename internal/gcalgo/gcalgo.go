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
	w, err := walk(h)
	if err != nil {
		return nil, err
	}
	g := &Graph{Roots: w.rootNodes()}
	if len(w.queue) == 0 {
		return g, nil
	}
	// The walk bounds the node count and body words, so the nodes share
	// two slabs and the copy allocates nothing per object.
	g.Nodes = make([]Node, len(w.queue))
	ptrSlab := make([]int, w.ptrWords)
	dataSlab := make([]object.Word, w.dataWords)
	for i := range g.Nodes {
		// Ptrs and Data stay nil when π or δ is 0, so a Graph deep-equals
		// one built by appending slot by slot.
		n := w.at(i)
		if n.Pi > 0 {
			ptrs := ptrSlab[:n.Pi:n.Pi]
			ptrSlab = ptrSlab[n.Pi:]
			copy(ptrs, n.Ptrs)
			n.Ptrs = ptrs
		}
		if n.Delta > 0 {
			data := dataSlab[:n.Delta:n.Delta]
			dataSlab = dataSlab[n.Delta:]
			copy(data, n.Data)
			n.Data = data
		}
		g.Nodes[i] = n
	}
	return g, nil
}

// walker is the canonical breadth-first numbering of a heap's live graph,
// built by walk. index maps each word of [base, alloc) to 0 (not an object
// base), -1 (a base not reached) or i+1 (the base of node i); queue lists
// the node bases in number order. Nothing else is kept, so a walk costs
// four bytes per word of the space plus four per object in it.
type walker struct {
	mem                 []object.Word
	base                object.Addr
	index               []int32
	queue               []object.Addr
	roots               []object.Addr
	ptrWords, dataWords int   // over the reached nodes
	ptrs                []int // at's scratch node pointer slots
}

// walk numbers h's reachable objects in canonical order and checks that
// every traversed pointer is nil or an object base of the current space and
// that no reached object has GC bits set, reporting the first violation in
// traversal order.
func walk(h *heap.Heap) (*walker, error) {
	w := &walker{mem: h.Mem(), base: h.Base(h.CurSpace()), roots: h.Roots()}
	mem, base, alloc := w.mem, w.base, h.AllocPtr()
	w.index = make([]int32, alloc-base)
	objs := 0
	h.Objects(h.CurSpace(), alloc, func(b object.Addr, _ object.Word) bool {
		w.index[b-base] = -1
		objs++
		return true
	})
	w.queue = make([]object.Addr, 0, objs)

	// visit numbers p if it is a new object base and reports false if p is
	// neither nil nor an object base.
	visit := func(p object.Addr) bool {
		if p == object.NilPtr {
			return true
		}
		if p < base || p >= alloc {
			return false
		}
		switch x := w.index[p-base]; {
		case x == 0:
			return false
		case x < 0:
			w.queue = append(w.queue, p)
			w.index[p-base] = int32(len(w.queue))
		}
		return true
	}
	const notBase = "gcalgo: %s refers to %d, not a live object base"

	for ri, r := range w.roots {
		if !visit(r) {
			return nil, fmt.Errorf(notBase, fmt.Sprintf("root %d", ri), r)
		}
	}
	for qi := 0; qi < len(w.queue); qi++ {
		b := w.queue[qi]
		hdr := mem[b]
		if object.Marked(hdr) || object.GrayBit(hdr) {
			return nil, fmt.Errorf("gcalgo: live object at %d still has GC bits set", b)
		}
		pi := object.Pi(hdr)
		for i := 0; i < pi; i++ {
			if p := h.Ptr(b, i); !visit(p) {
				return nil, fmt.Errorf(notBase, fmt.Sprintf("pointer %d of object %d", i, b), p)
			}
		}
		w.ptrWords += pi
		w.dataWords += object.Delta(hdr)
	}
	return w, nil
}

// node returns the node number of p, a pointer the walk checked (-1 for
// nil).
func (w *walker) node(p object.Addr) int {
	if p == object.NilPtr {
		return -1
	}
	return int(w.index[p-w.base] - 1)
}

// rootNodes returns the node numbers of the roots (-1 for nil), or nil
// when there are none.
func (w *walker) rootNodes() []int {
	if len(w.roots) == 0 {
		return nil
	}
	nodes := make([]int, len(w.roots))
	for i, r := range w.roots {
		nodes[i] = w.node(r)
	}
	return nodes
}

// at returns node i as a view into the heap: Data aliases the object's body
// and Ptrs the walker's scratch slots, both valid until the next call.
func (w *walker) at(i int) Node {
	b := w.queue[i]
	hdr := w.mem[b]
	n := Node{Pi: object.Pi(hdr), Delta: object.Delta(hdr)}
	if n.Pi > 0 {
		if cap(w.ptrs) < n.Pi {
			w.ptrs = make([]int, n.Pi)
		}
		n.Ptrs = w.ptrs[:n.Pi]
		for j := range n.Ptrs {
			n.Ptrs[j] = w.node(object.Addr(w.mem[object.PtrSlot(b, j)]))
		}
	}
	if n.Delta > 0 {
		d := object.DataSlot(b, n.Pi, 0)
		n.Data = w.mem[d : d+object.Addr(n.Delta)]
	}
	return n
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
	if err := g.equalShape(o.Roots, len(o.Nodes)); err != nil {
		return err
	}
	for i := range g.Nodes {
		if err := g.Nodes[i].equal(i, &o.Nodes[i]); err != nil {
			return err
		}
	}
	return nil
}

// Matches reports the first difference between g and the live graph of h's
// current space, or nil if they are identical. It returns exactly the error
// of g.Equal on Snapshot(h), or Snapshot's own error, but compares each
// object in place instead of building a second graph.
func (g *Graph) Matches(h *heap.Heap) error {
	w, err := walk(h)
	if err != nil {
		return err
	}
	if err := g.equalShape(w.rootNodes(), len(w.queue)); err != nil {
		return err
	}
	for i := range g.Nodes {
		n := w.at(i)
		if err := g.Nodes[i].equal(i, &n); err != nil {
			return err
		}
	}
	return nil
}

// equalShape compares g's roots with roots and its node count with nodes.
func (g *Graph) equalShape(roots []int, nodes int) error {
	if len(g.Roots) != len(roots) {
		return fmt.Errorf("gcalgo: root count differs: %d vs %d", len(g.Roots), len(roots))
	}
	for i := range g.Roots {
		if g.Roots[i] != roots[i] {
			return fmt.Errorf("gcalgo: root %d differs: node %d vs %d", i, g.Roots[i], roots[i])
		}
	}
	if len(g.Nodes) != nodes {
		return fmt.Errorf("gcalgo: node count differs: %d vs %d", len(g.Nodes), nodes)
	}
	return nil
}

// equal reports the first difference between node i of two graphs, a and b.
func (a *Node) equal(i int, b *Node) error {
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
	return nil
}

// VerifyCollection checks that h (after some collector ran on it) holds
// exactly the logical graph captured in before, that the heap's structural
// invariants hold, and that the space is perfectly compacted (allocation
// pointer equals base plus live words). It is the shared oracle for all
// collectors in this repository. It compares h with before in place
// (Matches) and builds no second graph.
func VerifyCollection(before *Graph, h *heap.Heap) error {
	if err := h.CheckIntegrity(); err != nil {
		return err
	}
	if err := before.Matches(h); err != nil {
		return err
	}
	want := h.Base(h.CurSpace()) + object.Addr(before.LiveWords())
	if h.AllocPtr() != want {
		return fmt.Errorf("gcalgo: imperfect compaction: alloc pointer %d, want %d (live words %d)",
			h.AllocPtr(), want, before.LiveWords())
	}
	return nil
}
