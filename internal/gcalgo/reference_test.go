package gcalgo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hwgc/internal/heap"
	"hwgc/internal/object"
	"hwgc/internal/workload"
)

// refSnapshot is the map-based Snapshot the dense-array one replaced, kept
// as the reference the new walk must agree with exactly.
func refSnapshot(h *heap.Heap) (*Graph, error) {
	// Valid object bases in the current space.
	bases := make(map[object.Addr]bool)
	h.Objects(h.CurSpace(), h.AllocPtr(), func(b object.Addr, _ object.Word) bool {
		bases[b] = true
		return true
	})

	g := &Graph{}
	index := make(map[object.Addr]int)
	var queue []object.Addr

	visit := func(p object.Addr, what string) (int, error) {
		if p == object.NilPtr {
			return -1, nil
		}
		if !bases[p] {
			return 0, fmt.Errorf("gcalgo: %s refers to %d, not a live object base", what, p)
		}
		if i, ok := index[p]; ok {
			return i, nil
		}
		i := len(index)
		index[p] = i
		queue = append(queue, p)
		return i, nil
	}

	for ri, r := range h.Roots() {
		i, err := visit(r, fmt.Sprintf("root %d", ri))
		if err != nil {
			return nil, err
		}
		g.Roots = append(g.Roots, i)
	}

	for qi := 0; qi < len(queue); qi++ {
		b := queue[qi]
		hd := h.Header(b)
		if hd.Mark || hd.Gray {
			return nil, fmt.Errorf("gcalgo: live object at %d still has GC bits set", b)
		}
		n := Node{Pi: hd.Pi, Delta: hd.Delta}
		for i := 0; i < hd.Pi; i++ {
			ci, err := visit(h.Ptr(b, i), fmt.Sprintf("pointer %d of object %d", i, b))
			if err != nil {
				return nil, err
			}
			n.Ptrs = append(n.Ptrs, ci)
		}
		for i := 0; i < hd.Delta; i++ {
			n.Data = append(n.Data, h.Data(b, i))
		}
		g.Nodes = append(g.Nodes, n)
	}
	return g, nil
}

// refCheckIntegrity is the map-based heap.CheckIntegrity the bitset one
// replaced, with the heap's fields read through its accessors. With more
// than one bad pointer slot the object it names depends on map order.
func refCheckIntegrity(h *heap.Heap) error {
	mem, alloc := h.Mem(), h.AllocPtr()
	base := h.Base(h.CurSpace())
	bases := make(map[object.Addr]bool)
	a := base
	for a < alloc {
		w := mem[a]
		hd := object.Decode(w)
		if hd.Mark || hd.Gray {
			return fmt.Errorf("heap: object at %d has GC bits set (%+v)", a, hd)
		}
		// Header word 1 is reserved; the mutator zeroes it at allocation but
		// collectors are not required to rewrite it, so it is not checked.
		bases[a] = true
		next := a + object.Addr(object.SizeWords(w))
		if next > alloc {
			return fmt.Errorf("heap: object at %d (size %d) overruns alloc pointer %d", a, object.SizeWords(w), alloc)
		}
		a = next
	}
	if a != alloc {
		return fmt.Errorf("heap: objects end at %d, alloc pointer at %d", a, alloc)
	}
	check := func(what string, p object.Addr) error {
		if p == object.NilPtr {
			return nil
		}
		if !bases[p] {
			return fmt.Errorf("heap: %s refers to %d, not an object base in the current space", what, p)
		}
		return nil
	}
	for i, r := range h.Roots() {
		if err := check(fmt.Sprintf("root %d", i), r); err != nil {
			return err
		}
	}
	for b := range bases {
		hd := object.Decode(mem[b])
		for i := 0; i < hd.Pi; i++ {
			if err := check(fmt.Sprintf("pointer %d of object %d", i, b), h.Ptr(b, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// agreeWithReference reports how Snapshot and CheckIntegrity disagree with
// their references on h, or "" if they agree: graphs deep-equal, nil slices
// included, and identical error texts. h must have at most one bad pointer
// slot, because among several the reference picks one in map order.
func agreeWithReference(h *heap.Heap) string {
	g, err := Snapshot(h)
	rg, rerr := refSnapshot(h)
	if errText(err) != errText(rerr) {
		return fmt.Sprintf("Snapshot error %q, reference %q", errText(err), errText(rerr))
	}
	if !reflect.DeepEqual(g, rg) {
		return fmt.Sprintf("Snapshot graph differs from reference:\n%+v\n%+v", g, rg)
	}
	ierr, rierr := h.CheckIntegrity(), refCheckIntegrity(h)
	if errText(ierr) != errText(rierr) {
		return fmt.Sprintf("CheckIntegrity error %q, reference %q", errText(ierr), errText(rierr))
	}
	return ""
}

// A corruption is one fault written into a valid heap: a pointer slot or
// root overwritten with an arbitrary address, or a GC bit set on a header.
type corruption struct {
	kind   uint8 // mod 4 indexes corruptionKinds
	target uint16
	addr   uint32
}

// corruptionKinds names corruption.kind mod 4.
var corruptionKinds = []string{"pointer", "root", "mark", "gray"}

// apply writes c into h. target picks, modulo their count, the pointer slot
// (in address order), the root or the object to corrupt; a heap with none
// of them is left intact. It reports whether it wrote anything.
func (c corruption) apply(h *heap.Heap) bool {
	var objs, slots []object.Addr
	h.Objects(h.CurSpace(), h.AllocPtr(), func(b object.Addr, w object.Word) bool {
		objs = append(objs, b)
		for i := 0; i < object.Pi(w); i++ {
			slots = append(slots, object.PtrSlot(b, i))
		}
		return true
	})
	mem := h.Mem()
	switch c.kind % 4 {
	case 0:
		if len(slots) == 0 {
			return false
		}
		mem[slots[int(c.target)%len(slots)]] = object.Word(c.addr)
	case 1:
		if h.NumRoots() == 0 {
			return false
		}
		h.SetRoot(int(c.target)%h.NumRoots(), c.addr)
	default:
		if len(objs) == 0 {
			return false
		}
		b := objs[int(c.target)%len(objs)]
		hd := h.Header(b)
		if c.kind%4 == 2 {
			hd.Mark = true
		} else {
			hd.Gray = true
		}
		mem[b] = hd.Encode()
	}
	return true
}

// TestOracleMatchesReferenceQuick: on random heaps before and after a
// reference collection, and on each with one random corruption, Snapshot
// and CheckIntegrity agree with their map-based references.
func TestOracleMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64, kind uint8, target uint16, addr uint32) bool {
		h, err := randomHeap(rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		collected := h.Clone()
		if _, _, err := Collect(collected); err != nil {
			t.Logf("collect: %v", err)
			return false
		}
		for _, h := range []*heap.Heap{h, collected} {
			if msg := agreeWithReference(h); msg != "" {
				t.Log(msg)
				return false
			}
			// Spread the address over both spaces and a little past memory.
			c := corruption{kind, target, addr % uint32(len(h.Mem())+8)}
			c.apply(h)
			if msg := agreeWithReference(h); msg != "" {
				t.Logf("%s corruption %+v: %s", corruptionKinds[kind%4], c, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOracleMatchesReferenceOnWorkload corrupts a built javacc heap once per
// case (an interior pointer, a pointer at or past alloc, a root outside the
// space, a mark or gray bit) and checks agreement with the references. The
// corrupted objects are a root object, whose faults Snapshot must report
// too, and five spread over the space, some of them garbage.
func TestOracleMatchesReferenceOnWorkload(t *testing.T) {
	spec, err := workload.Get("javacc")
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Plan(1, 42).BuildHeap(2)
	if err != nil {
		t.Fatal(err)
	}
	if msg := agreeWithReference(h); msg != "" {
		t.Fatal(msg)
	}
	isRoot := map[object.Addr]bool{}
	for _, r := range h.Roots() {
		isRoot[r] = true
	}
	var rooted, spread []object.Addr
	h.Objects(h.CurSpace(), h.AllocPtr(), func(b object.Addr, w object.Word) bool {
		if object.Pi(w) > 0 {
			spread = append(spread, b)
			if isRoot[b] {
				rooted = append(rooted, b)
			}
		}
		return true
	})
	if len(rooted) == 0 {
		t.Fatal("javacc has no root object with pointer slots")
	}
	targets := rooted[:1]
	for i := 0; i < 5; i++ {
		targets = append(targets, spread[i*len(spread)/5])
	}

	type tc struct {
		name    string
		reached bool // the fault is on Snapshot's walk
		corrupt func(*heap.Heap)
	}
	cases := []tc{
		{"root/other-space", true, func(h *heap.Heap) { h.SetRoot(0, h.Base(h.OtherSpace())) }},
		{"root/past-memory", true, func(h *heap.Heap) { h.SetRoot(h.NumRoots()-1, object.Addr(len(h.Mem()))) }},
	}
	for ti, b := range targets {
		setSlot := func(p object.Addr) func(*heap.Heap) {
			return func(h *heap.Heap) { h.Mem()[object.PtrSlot(b, 0)] = object.Word(p) }
		}
		setBit := func(mark bool) func(*heap.Heap) {
			return func(h *heap.Heap) {
				hd := h.Header(b)
				hd.Mark, hd.Gray = mark, !mark
				h.Mem()[b] = hd.Encode()
			}
		}
		reached := ti == 0
		cases = append(cases,
			tc{fmt.Sprintf("interior/%d", b), reached, setSlot(b + 1)},
			tc{fmt.Sprintf("at-alloc/%d", b), reached, setSlot(h.AllocPtr())},
			tc{fmt.Sprintf("past-alloc/%d", b), reached, setSlot(h.AllocPtr() + 7)},
			tc{fmt.Sprintf("mark/%d", b), reached, setBit(true)},
			tc{fmt.Sprintf("gray/%d", b), reached, setBit(false)},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := h.Clone()
			c.corrupt(h)
			if h.CheckIntegrity() == nil {
				t.Fatal("corruption not detected by CheckIntegrity")
			}
			if _, err := Snapshot(h); c.reached && err == nil {
				t.Fatal("corruption not detected by Snapshot")
			}
			if msg := agreeWithReference(h); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// corruptionSeeds is the seed corpus of the corruption fuzz targets. Its
// heap has five objects at 1, 5, 10, 15 and 19 (alloc 22) in the space
// [1, 257), wired 0→1, 1→{2,3}, 2→1, 3→{4,nil}; object 0 is the root.
// Pointer slots, in address order, are at 3, 7, 8, 12, 17 and 18.
var corruptionSeeds = func() []struct {
	data []byte
	c    corruption
} {
	heap := []byte{0x85, 0x06, 0x09, 0x02, 0x04, 0x00, 1, 2, 3, 1, 4, 5}
	return []struct {
		data []byte
		c    corruption
	}{
		{heap, corruption{0, 0, 2}},          // interior pointer
		{heap, corruption{0, 1, 22}},         // pointer at alloc
		{heap, corruption{0, 5, 0xFFFFFFFF}}, // pointer past memory
		{heap, corruption{1, 0, 300}},        // root in the other space
		{heap, corruption{2, 2, 0}},          // mark bit
		{heap, corruption{3, 4, 0}},          // gray bit
	}
}()

// FuzzSnapshotCorruption builds a small heap from the fuzz bytes through the
// heap API, applies one corruption, and checks that Snapshot and
// CheckIntegrity neither panic nor disagree with their references.
func FuzzSnapshotCorruption(f *testing.F) {
	for _, s := range corruptionSeeds {
		f.Add(s.data, s.c.kind, s.c.target, s.c.addr)
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, target uint16, addr uint32) {
		h := fuzzHeap(data)
		if !(corruption{kind, target, addr}).apply(h) {
			return
		}
		if msg := agreeWithReference(h); msg != "" {
			t.Fatal(msg)
		}
	})
}

// refEqual is Graph.Equal as it was written before Matches shared its
// checks, kept as the reference the in-place comparison must agree with.
func refEqual(g, o *Graph) error {
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

// refMatches is the two-graph comparison VerifyCollection made before it
// compared in place, built from the map-based reference walk and the
// reference Equal, so it shares no code with Matches.
func refMatches(g *Graph, h *heap.Heap) error {
	after, err := refSnapshot(h)
	if err != nil {
		return err
	}
	return refEqual(g, after)
}

// refVerifyCollection is VerifyCollection by way of refMatches.
func refVerifyCollection(before *Graph, h *heap.Heap) error {
	if err := h.CheckIntegrity(); err != nil {
		return err
	}
	if err := refMatches(before, h); err != nil {
		return err
	}
	want := h.Base(h.CurSpace()) + object.Addr(before.LiveWords())
	if h.AllocPtr() != want {
		return fmt.Errorf("gcalgo: imperfect compaction: alloc pointer %d, want %d (live words %d)",
			h.AllocPtr(), want, before.LiveWords())
	}
	return nil
}

// verifyAgrees reports how VerifyCollection, Matches and Equal of before
// against h differ from their two-graph references, or "" if every error
// text is the same.
func verifyAgrees(before *Graph, h *heap.Heap) string {
	if got, want := errText(VerifyCollection(before, h)), errText(refVerifyCollection(before, h)); got != want {
		return fmt.Sprintf("VerifyCollection error %q, reference %q", got, want)
	}
	if got, want := errText(before.Matches(h)), errText(refMatches(before, h)); got != want {
		return fmt.Sprintf("Matches error %q, reference %q", got, want)
	}
	if after, err := Snapshot(h); err == nil {
		if got, want := errText(before.Equal(after)), errText(refEqual(before, after)); got != want {
			return fmt.Sprintf("Equal error %q, reference %q", got, want)
		}
	}
	return ""
}

// FuzzVerifyInPlace: on a fuzz heap, uncollected and after a reference
// collection, with one corruption and, when flip is set, one data word
// changed, the in-place oracle returns exactly the error of the two-graph
// one (refVerifyCollection). Each corrupted heap is checked against the clean heap's graph, and,
// when it still has a graph, that graph is checked against the clean
// collected heap, so root, node-count, shape, pointer and data differences
// all occur.
func FuzzVerifyInPlace(f *testing.F) {
	for _, s := range corruptionSeeds {
		f.Add(s.data, s.c.kind, s.c.target, s.c.addr, uint16(0))
		f.Add(s.data, s.c.kind, s.c.target, s.c.addr, uint16(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, target uint16, addr uint32, flip uint16) {
		h := fuzzHeap(data)
		before, err := Snapshot(h)
		if err != nil {
			t.Fatalf("fuzz heap has no graph: %v", err)
		}
		collected := h.Clone()
		if _, _, err := Collect(collected); err != nil {
			t.Fatal(err)
		}
		for _, clean := range []*heap.Heap{h, collected} {
			if msg := verifyAgrees(before, clean); msg != "" {
				t.Fatalf("clean heap: %s", msg)
			}
			x := clean.Clone()
			(corruption{kind, target, addr}).apply(x)
			if flip != 0 {
				flipData(x, int(flip))
			}
			if msg := verifyAgrees(before, x); msg != "" {
				t.Fatalf("corrupted heap: %s", msg)
			}
			if g, err := Snapshot(x); err == nil {
				if msg := verifyAgrees(g, collected); msg != "" {
					t.Fatalf("corrupted graph against the collected heap: %s", msg)
				}
			}
		}
	})
}

// flipData changes one data word of h's current space, the n-th (mod the
// count) in address order; a heap without data words is left intact.
func flipData(h *heap.Heap, n int) {
	var slots []object.Addr
	h.Objects(h.CurSpace(), h.AllocPtr(), func(b object.Addr, w object.Word) bool {
		for i := 0; i < object.Delta(w); i++ {
			slots = append(slots, object.DataSlot(b, object.Pi(w), i))
		}
		return true
	})
	if len(slots) > 0 {
		h.Mem()[slots[n%len(slots)]] ^= 0x5a
	}
}

// fuzzHeap builds a heap of up to 32 objects from data. Each leading byte up
// to a zero byte allocates one object: π is its low 2 bits, δ the next 3,
// and its top bit makes the object a root (the first object always is).
// Each byte after the zero fills the next pointer slot, in allocation order,
// with object byte mod (n+1), where n, the object count, means nil.
func fuzzHeap(data []byte) *heap.Heap {
	h := heap.New(256)
	var objs []object.Addr
	for len(data) > 0 && data[0] != 0 && len(objs) < 32 {
		a, err := h.Alloc(int(data[0]&3), int(data[0]>>2&7))
		if err != nil {
			break
		}
		for j := 0; j < h.Header(a).Delta; j++ {
			h.SetData(a, j, object.Word(a)<<8|object.Word(j))
		}
		if data[0]&0x80 != 0 || len(objs) == 0 {
			h.AddRoot(a)
		}
		objs = append(objs, a)
		data = data[1:]
	}
	if len(data) > 0 {
		data = data[1:]
	}
	for _, a := range objs {
		for i := 0; i < h.Header(a).Pi && len(data) > 0; i++ {
			if j := int(data[0]) % (len(objs) + 1); j < len(objs) {
				h.SetPtr(a, i, objs[j])
			}
			data = data[1:]
		}
	}
	return h
}
