package machine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hwgc/internal/gcalgo"
	"hwgc/internal/object"
	"hwgc/internal/workload"
)

// CollectConcurrent is the test-only scripted-driver seam: it runs one
// collection cycle with driver's operation stream executing concurrently
// through the machine's mutator port, period idle cycles apart. The roots
// are processed stop-the-world at the start, exactly as in Collect; from
// the moment the scan loop starts, the mutator runs under the
// wait-until-black access barrier. Production code attaches the built-in
// churn mutator through Config.MutatorOps instead.
func (m *Machine) CollectConcurrent(driver MutDriver, period int) (Stats, MutatorStats, error) {
	if driver == nil {
		return Stats{}, MutatorStats{}, fmt.Errorf("machine: nil mutator driver")
	}
	m.mut = newMutCore(m, driver, period)
	defer func() { m.mut = nil }()
	st, err := m.Collect()
	if err != nil {
		return Stats{}, MutatorStats{}, err
	}
	ms := m.mut.Stats
	if st.Mutator != nil {
		ms = *st.Mutator // includes the end-of-cycle floating-garbage walk
	}
	return st, ms, nil
}

// shadowModel mirrors, in plain Go, every mutation the concurrent driver
// performs, so the heap after a concurrent collection can be checked
// against an independently maintained ground truth.
type shadowModel struct {
	nodes []shadowNode
	roots []int
	regs  [MutatorRegisters]int // -1 = nil
}

type shadowNode struct {
	pi, delta int
	ptrs      []int
	data      []object.Word
}

func newShadow(plan *workload.Plan) *shadowModel {
	s := &shadowModel{}
	for i := range plan.Objs {
		o := &plan.Objs[i]
		s.nodes = append(s.nodes, shadowNode{
			pi:    o.Pi,
			delta: o.Delta,
			ptrs:  append([]int(nil), o.Ptrs...),
			data:  append([]object.Word(nil), o.Data...),
		})
	}
	s.roots = append(s.roots, plan.Roots...)
	for i := range s.regs {
		s.regs[i] = -1
	}
	return s
}

// expectedGraph builds the canonical logical graph of the shadow, in the
// same BFS order gcalgo.Snapshot uses, so the two are directly comparable.
func (s *shadowModel) expectedGraph() *gcalgo.Graph {
	g := &gcalgo.Graph{}
	index := map[int]int{}
	var queue []int
	visit := func(id int) int {
		if id < 0 {
			return -1
		}
		if i, ok := index[id]; ok {
			return i
		}
		i := len(index)
		index[id] = i
		queue = append(queue, id)
		return i
	}
	for _, r := range s.roots {
		g.Roots = append(g.Roots, visit(r))
	}
	for qi := 0; qi < len(queue); qi++ {
		n := &s.nodes[queue[qi]]
		node := gcalgo.Node{Pi: n.pi, Delta: n.delta}
		for _, c := range n.ptrs {
			node.Ptrs = append(node.Ptrs, visit(c))
		}
		node.Data = append(node.Data, n.data...)
		g.Nodes = append(g.Nodes, node)
	}
	return g
}

// shadowDriver generates random valid mutator operations, applying each to
// the shadow when it is issued. It also cross-checks every MutLoadData
// result delivered by the machine against the shadow.
type shadowDriver struct {
	s        *shadowModel
	rng      *rand.Rand
	maxOps   int64
	maxAlloc int64
	allocs   int64

	expectData  object.Word
	checkData   bool
	dataFailure bool

	lastRoot int
	lastReg  int
}

func (d *shadowDriver) next(seq int64, regs []object.Addr, lastData object.Word) (MutOp, bool) {
	if d.checkData {
		d.checkData = false
		if lastData != d.expectData {
			d.dataFailure = true
			return MutOp{}, false
		}
	}
	if seq >= d.maxOps {
		return MutOp{}, false
	}
	s := d.s
	for try := 0; try < 32; try++ {
		switch d.rng.Intn(8) {
		case 0: // load a root
			return MutOp{Kind: MutLoadRoot, Reg: d.loadRootInto(), RootIdx: d.lastRoot}, true
		case 1: // store a register into a root (possibly nil)
			r := d.rng.Intn(MutatorRegisters)
			ri := d.rng.Intn(len(s.roots))
			s.roots[ri] = s.regs[r]
			return MutOp{Kind: MutStoreRoot, Reg: r, RootIdx: ri}, true
		case 2: // follow a pointer
			r, ok := d.pickReg(func(n *shadowNode) bool { return n.pi > 0 })
			if !ok {
				continue
			}
			slot := d.rng.Intn(s.nodes[s.regs[r]].pi)
			r2 := d.rng.Intn(MutatorRegisters)
			s.regs[r2] = s.nodes[s.regs[r]].ptrs[slot]
			return MutOp{Kind: MutLoadPtr, Reg: r, Reg2: r2, Slot: slot}, true
		case 3: // rewire a pointer
			r, ok := d.pickReg(func(n *shadowNode) bool { return n.pi > 0 })
			if !ok {
				continue
			}
			slot := d.rng.Intn(s.nodes[s.regs[r]].pi)
			r2 := d.rng.Intn(MutatorRegisters)
			s.nodes[s.regs[r]].ptrs[slot] = s.regs[r2]
			return MutOp{Kind: MutStorePtr, Reg: r, Reg2: r2, Slot: slot}, true
		case 4: // write a data word
			r, ok := d.pickReg(func(n *shadowNode) bool { return n.delta > 0 })
			if !ok {
				continue
			}
			slot := d.rng.Intn(s.nodes[s.regs[r]].delta)
			w := object.Word(d.rng.Uint64())
			s.nodes[s.regs[r]].data[slot] = w
			return MutOp{Kind: MutStoreData, Reg: r, Slot: slot, Data: w}, true
		case 5: // read a data word (verified on the next call)
			r, ok := d.pickReg(func(n *shadowNode) bool { return n.delta > 0 })
			if !ok {
				continue
			}
			slot := d.rng.Intn(s.nodes[s.regs[r]].delta)
			d.expectData = s.nodes[s.regs[r]].data[slot]
			d.checkData = true
			return MutOp{Kind: MutLoadData, Reg: r, Slot: slot}, true
		case 6: // allocate
			if d.allocs >= d.maxAlloc {
				continue
			}
			d.allocs++
			pi := d.rng.Intn(3)
			delta := d.rng.Intn(4)
			r := d.rng.Intn(MutatorRegisters)
			s.nodes = append(s.nodes, shadowNode{
				pi: pi, delta: delta,
				ptrs: nilPtrs(pi), data: make([]object.Word, delta),
			})
			s.regs[r] = len(s.nodes) - 1
			return MutOp{Kind: MutAlloc, Reg: r, Pi: pi, Delta: delta}, true
		default:
			return MutOp{Kind: MutNop}, true
		}
	}
	return MutOp{Kind: MutNop}, true
}

func nilPtrs(pi int) []int {
	p := make([]int, pi)
	for i := range p {
		p[i] = -1
	}
	return p
}

// lastRoot remembers the root index chosen by loadRootInto.
func (d *shadowDriver) loadRootInto() int {
	d.lastRoot = d.rng.Intn(len(d.s.roots))
	d.lastReg = d.rng.Intn(MutatorRegisters)
	d.s.regs[d.lastReg] = d.s.roots[d.lastRoot]
	return d.lastReg
}

// pickReg returns a register holding a non-nil node satisfying pred.
func (d *shadowDriver) pickReg(pred func(*shadowNode) bool) (int, bool) {
	start := d.rng.Intn(MutatorRegisters)
	for k := 0; k < MutatorRegisters; k++ {
		r := (start + k) % MutatorRegisters
		if id := d.s.regs[r]; id >= 0 && pred(&d.s.nodes[id]) {
			return r, true
		}
	}
	return 0, false
}

// TestConcurrentCollectShadow is the concurrent-mode oracle test: run a
// randomized mutator concurrently with the collection and verify the final
// heap against the shadow model (graph shape, wiring and data), for several
// benchmarks, core counts and mutator speeds.
func TestConcurrentCollectShadow(t *testing.T) {
	for _, tc := range []struct {
		bench  string
		cores  int
		period int
		seed   int64
	}{
		{"jlisp", 4, 1, 1},
		{"jlisp", 1, 1, 2},
		{"jlisp", 16, 4, 3},
		{"javac", 8, 2, 4},
		{"jflex", 16, 1, 5},
		{"search", 2, 1, 6},
	} {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			spec, err := workload.Get(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			plan := spec.Plan(1, tc.seed)
			h, err := plan.BuildHeap(3.0) // headroom for concurrent allocation
			if err != nil {
				t.Fatal(err)
			}
			shadow := newShadow(plan)
			driver := &shadowDriver{
				s:        shadow,
				rng:      rand.New(rand.NewSource(tc.seed * 977)),
				maxOps:   4000,
				maxAlloc: 300,
			}
			m, err := New(h, Config{Cores: tc.cores})
			if err != nil {
				t.Fatal(err)
			}
			st, ms, err := m.CollectConcurrent(driver.next, tc.period)
			if err != nil {
				t.Fatal(err)
			}
			if driver.dataFailure {
				t.Fatal("mutator read a data word that does not match the shadow")
			}
			if ms.Ops == 0 {
				t.Fatal("mutator never ran")
			}
			if err := h.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			got, err := gcalgo.Snapshot(h)
			if err != nil {
				t.Fatal(err)
			}
			if err := shadow.expectedGraph().Equal(got); err != nil {
				t.Fatalf("heap diverged from shadow after %d mutator ops (%d allocs, %d GC cycles): %v",
					ms.Ops, ms.Allocs, st.Cycles, err)
			}
			if ms.Allocs > 0 && ms.FramesSkipped == 0 {
				t.Errorf("mutator allocated %d frames but the scanners skipped none", ms.Allocs)
			}
		})
	}
}

// TestConcurrentMutatorStallsBounded compares the stop-the-world pause with
// the concurrent mutator's worst single-operation latency — the property
// the authors' real-time line of work is after ("GC pauses never exceed a
// couple of hundred clock cycles").
func TestConcurrentMutatorStallsBounded(t *testing.T) {
	spec, _ := workload.Get("javac")
	plan := spec.Plan(1, 9)

	// Stop-the-world: the whole collection is the pause.
	h1, err := plan.BuildHeap(3.0)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := New(h1, Config{Cores: 8})
	stw, err := m1.Collect()
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent: the worst mutator operation latency is the pause.
	h2, err := plan.BuildHeap(3.0)
	if err != nil {
		t.Fatal(err)
	}
	shadow := newShadow(plan)
	driver := &shadowDriver{s: shadow, rng: rand.New(rand.NewSource(7)), maxOps: 1 << 40, maxAlloc: 200}
	m2, _ := New(h2, Config{Cores: 8})
	_, ms, err := m2.CollectConcurrent(driver.next, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms.MaxOpLatency <= 0 {
		t.Fatal("no latency recorded")
	}
	if ms.MaxOpLatency*10 > stw.Cycles {
		t.Errorf("worst concurrent mutator operation (%d cycles) is not far below the STW pause (%d cycles)",
			ms.MaxOpLatency, stw.Cycles)
	}
	t.Logf("STW pause %d cycles; worst concurrent op %d cycles; barrier stalls %d",
		stw.Cycles, ms.MaxOpLatency, ms.BarrierStalls)
}

// TestConcurrentAllocationOverflowDetected: a mutator that allocates faster
// than the collector frees must produce a clean error, not corruption.
func TestConcurrentAllocationOverflowDetected(t *testing.T) {
	spec, _ := workload.Get("jlisp")
	plan := spec.Plan(1, 3)
	h, err := plan.BuildHeap(1.1) // almost no headroom
	if err != nil {
		t.Fatal(err)
	}
	driver := func(seq int64, regs []object.Addr, _ object.Word) (MutOp, bool) {
		return MutOp{Kind: MutAlloc, Reg: 0, Pi: 0, Delta: 200}, true
	}
	m, _ := New(h, Config{Cores: 2})
	if _, _, err := m.CollectConcurrent(driver, 1); err == nil {
		t.Fatal("allocation storm not detected")
	}
}

// TestConcurrentDriverErrorsSurface: invalid driver operations abort the
// collection with descriptive errors.
func TestConcurrentDriverErrors(t *testing.T) {
	cases := []MutOp{
		{Kind: MutLoadPtr, Reg: 0, Reg2: 1, Slot: 0}, // nil dereference
		{Kind: MutLoadRoot, Reg: -1, RootIdx: 0},     // bad register
		{Kind: MutLoadRoot, Reg: 0, RootIdx: 999},    // bad root
		{Kind: MutAlloc, Reg: 0, Pi: -1},             // bad shape
		{Kind: MutKind(99)},                          // unknown op
	}
	for i, bad := range cases {
		spec, _ := workload.Get("jlisp")
		h, err := spec.Plan(1, 3).BuildHeap(2.0)
		if err != nil {
			t.Fatal(err)
		}
		driver := func(seq int64, regs []object.Addr, _ object.Word) (MutOp, bool) {
			return bad, true
		}
		m, _ := New(h, Config{Cores: 2})
		if _, _, err := m.CollectConcurrent(driver, 1); err == nil {
			t.Errorf("case %d: invalid op %+v not rejected", i, bad)
		}
	}
	// Nil driver.
	spec, _ := workload.Get("jlisp")
	h, _ := spec.Plan(1, 3).BuildHeap(2.0)
	m, _ := New(h, Config{Cores: 2})
	if _, _, err := m.CollectConcurrent(nil, 1); err == nil {
		t.Error("nil driver accepted")
	}
}

// TestConcurrentChurnDriver runs the built-in churn mutator (the one
// Config.MutatorOps attaches, as the experiment harness and the serving
// stack use it) and verifies heap integrity afterwards.
func TestConcurrentChurnDriver(t *testing.T) {
	for _, bench := range []string{"jlisp", "javac"} {
		spec, _ := workload.Get(bench)
		h, err := spec.Plan(1, 11).BuildHeap(3.0)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := New(h, Config{Cores: 8, MutatorOps: 1 << 40, MutatorAllocs: 150, MutatorSeed: 11, MutatorPeriod: 1})
		st, err := m.Collect()
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		ms := st.Mutator
		if ms == nil || ms.Ops == 0 || ms.Allocs == 0 {
			t.Fatalf("%s: driver did nothing: %+v", bench, ms)
		}
		if err := h.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if _, err := gcalgo.Snapshot(h); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if st.LiveObjects == 0 {
			t.Fatalf("%s: nothing survived", bench)
		}
	}
}

// TestConcurrentDeterminism: same mutator seed, same everything.
func TestConcurrentDeterminism(t *testing.T) {
	run := func() Stats {
		spec, _ := workload.Get("jlisp")
		h, err := spec.Plan(1, 13).BuildHeap(3.0)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := New(h, Config{Cores: 4, MutatorOps: 2000, MutatorAllocs: 100, MutatorSeed: 13, MutatorPeriod: 2})
		st, err := m.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if st.Mutator == nil || st.Mutator.Ops == 0 {
			t.Fatalf("mutator never ran: %+v", st.Mutator)
		}
		return st
	}
	s1, s2 := run(), run()
	if diffs := s1.DiffFields(&s2); diffs != nil {
		t.Fatalf("concurrent mode not deterministic: %v", diffs)
	}
}

// TestConcurrentShadowQuick drives random graphs through concurrent
// collections at random core counts and mutator speeds, verifying against
// the shadow model every time.
func TestConcurrentShadowQuick(t *testing.T) {
	f := func(seed int64, coresRaw, periodRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := &workload.Plan{}
		n := 2 + rng.Intn(80)
		entry := plan.RandomGraph(rng, n, 3, 4)
		plan.AddRoot(entry)
		plan.AddRoot(rng.Intn(n))
		plan.FillData(rng)
		h, err := plan.BuildHeap(3.5)
		if err != nil {
			return false
		}
		shadow := newShadow(plan)
		driver := &shadowDriver{
			s:        shadow,
			rng:      rand.New(rand.NewSource(seed * 131)),
			maxOps:   600,
			maxAlloc: 40,
		}
		m, err := New(h, Config{Cores: 1 + int(coresRaw)%16})
		if err != nil {
			return false
		}
		_, _, err = m.CollectConcurrent(driver.next, 1+int(periodRaw)%4)
		if err != nil {
			t.Logf("collect (seed %d): %v", seed, err)
			return false
		}
		if driver.dataFailure {
			t.Logf("data mismatch (seed %d)", seed)
			return false
		}
		if err := h.CheckIntegrity(); err != nil {
			t.Logf("integrity (seed %d): %v", seed, err)
			return false
		}
		got, err := gcalgo.Snapshot(h)
		if err != nil {
			t.Logf("snapshot (seed %d): %v", seed, err)
			return false
		}
		if err := shadow.expectedGraph().Equal(got); err != nil {
			t.Logf("shadow divergence (seed %d): %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
