package workload

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hwgc/internal/gcalgo"
	"hwgc/internal/heap"
	"hwgc/internal/object"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"compress", "cup", "db", "javac", "javacc", "jflex", "jlisp", "search", "blob"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for _, n := range names {
		s, err := Get(n)
		if err != nil || s.Name != n || s.Desc == "" || s.Plan == nil {
			t.Fatalf("spec %q broken: %+v err=%v", n, s, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(All()) != len(want) {
		t.Fatal("All() wrong length")
	}
}

// TestMaxScaleIsBuildable: every spec's plan validates at its largest
// scale (capped at 64, so the test stays cheap), and cup, whose bound is
// the smallest, fails one scale past it.
func TestMaxScaleIsBuildable(t *testing.T) {
	const maxTested = 64
	for _, spec := range All() {
		scale := spec.MaxScale
		if scale == 0 || scale > maxTested {
			scale = maxTested
		}
		if err := spec.CheckScale(scale); err != nil {
			t.Errorf("%s: CheckScale(%d): %v", spec.Name, scale, err)
		}
		if err := spec.Plan(scale, 1).Validate(); err != nil {
			t.Errorf("%s at scale %d: %v", spec.Name, scale, err)
		}
	}
	cup, err := Get("cup")
	if err != nil {
		t.Fatal(err)
	}
	if cup.MaxScale != 14 {
		t.Fatalf("cup MaxScale = %d, want 14 (4095/280)", cup.MaxScale)
	}
	if err := cup.Plan(cup.MaxScale+1, 1).Validate(); err == nil {
		t.Error("cup's plan validates past its MaxScale: the bound is not tight")
	}
	for _, scale := range []int{15, 64} {
		if err := cup.CheckScale(scale); err == nil {
			t.Errorf("cup CheckScale(%d) accepted", scale)
		}
	}
}

func TestAllPlansBuildAndVerify(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			plan := spec.Plan(1, 123)
			liveObj, liveWords := plan.LiveStats()
			if liveObj <= 0 || liveWords <= 0 {
				t.Fatalf("no live objects")
			}
			if liveWords >= plan.Words() {
				t.Fatalf("no garbage in plan: live %d of total %d", liveWords, plan.Words())
			}
			h, err := plan.BuildHeap(2.0)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			// Snapshot finds exactly the plan's live set.
			g, err := gcalgo.Snapshot(h)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Nodes) != liveObj {
				t.Fatalf("snapshot found %d nodes, plan says %d", len(g.Nodes), liveObj)
			}
			if g.LiveWords() != liveWords {
				t.Fatalf("snapshot words %d, plan says %d", g.LiveWords(), liveWords)
			}
		})
	}
}

func TestPlansAreDeterministic(t *testing.T) {
	for _, spec := range All() {
		a := spec.Plan(1, 7)
		b := spec.Plan(1, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different plans", spec.Name)
		}
		c := spec.Plan(1, 8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical plans", spec.Name)
		}
	}
}

func TestScaleGrowsPlans(t *testing.T) {
	for _, spec := range All() {
		_, w1 := spec.Plan(1, 7).LiveStats()
		_, w2 := spec.Plan(2, 7).LiveStats()
		if w2 < w1*3/2 {
			t.Errorf("%s: scale 2 live words %d not appreciably larger than %d", spec.Name, w2, w1)
		}
	}
}

// maxFrontier computes the peak work-list size (in objects) of a Cheney
// traversal of the plan — the amount of object-level parallelism available.
func maxFrontier(p *Plan) int {
	seen := make([]bool, len(p.Objs))
	var queue []int
	for _, r := range p.Roots {
		if r >= 0 && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	head, peak := 0, 0
	for head < len(queue) {
		if d := len(queue) - head; d > peak {
			peak = d
		}
		o := queue[head]
		head++
		for _, c := range p.Objs[o].Ptrs {
			if c >= 0 && !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return peak
}

// TestShapeProperties checks the graph-shape claims the benchmarks exist to
// reproduce (paper Table I / Table II discussion).
func TestShapeProperties(t *testing.T) {
	frontier := map[string]int{}
	for _, spec := range All() {
		frontier[spec.Name] = maxFrontier(spec.Plan(1, 42))
	}
	// blob: a handful of huge objects — the frontier (and with it the
	// object-level parallelism) is bounded by the blob count.
	if f := frontier["blob"]; f < 4 || f > 8 {
		t.Errorf("blob frontier %d, want the blob count (6)", f)
	}
	// Linear benchmarks: frontier stays tiny.
	if frontier["search"] > 3 {
		t.Errorf("search frontier %d, want ≤3 (pure path)", frontier["search"])
	}
	if frontier["compress"] > 4 {
		t.Errorf("compress frontier %d, want ≤4 (chain)", frontier["compress"])
	}
	// jflex: limited (burst-bounded) parallelism.
	if f := frontier["jflex"]; f < 4 || f > 64 {
		t.Errorf("jflex frontier %d, want small burst", f)
	}
	// cup: must exceed the 32k header FIFO.
	if frontier["cup"] <= 32*1024 {
		t.Errorf("cup frontier %d, must exceed 32768 to overflow the FIFO", frontier["cup"])
	}
	// Scalable benchmarks: comfortably more parallelism than 16 cores.
	for _, b := range []string{"db", "javac", "javacc", "jlisp"} {
		if frontier[b] < 64 {
			t.Errorf("%s frontier %d, want ≥64", b, frontier[b])
		}
	}
}

// TestJavacHubSkew checks the javac reference-popularity skew: the hottest
// object must attract a large share of all incoming references.
func TestJavacHubSkew(t *testing.T) {
	p := generate(javacPlan)(1, 42)
	indeg := make(map[int]int)
	for i := range p.Objs {
		for _, c := range p.Objs[i].Ptrs {
			if c >= 0 {
				indeg[c]++
			}
		}
	}
	liveObj, _ := p.LiveStats()
	max := 0
	for _, d := range indeg {
		if d > max {
			max = d
		}
	}
	if max < liveObj/4 {
		t.Errorf("hottest hub has %d references for %d live objects; want heavy skew", max, liveObj)
	}
}

func TestPlanPrimitives(t *testing.T) {
	p := &Plan{}
	a := p.NewObj(2, 1)
	b := p.NewObj(0, 0)
	p.Link(a, 1, b)
	p.AddRoot(a)
	p.AddRoot(-1)
	if p.Objs[a].Ptrs[0] != -1 || p.Objs[a].Ptrs[1] != b {
		t.Fatal("Link wrong")
	}
	if p.Words() != (2+2+1)+2 {
		t.Fatalf("Words = %d", p.Words())
	}
	obj, words := p.LiveStats()
	if obj != 2 || words != p.Words() {
		t.Fatalf("LiveStats = %d,%d", obj, words)
	}
	h, err := p.BuildHeap(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumRoots() != 2 || h.Root(1) != object.NilPtr {
		t.Fatal("roots not realized")
	}
	if h.Ptr(h.Root(0), 1) == object.NilPtr {
		t.Fatal("edge not realized")
	}
}

// TestNewObjSlotLists checks the slab-carved slot lists: each is capped at
// its own length, so appending to one cannot overwrite the next object's
// slots, and empty lists are non-nil so they encode as [] rather than null.
func TestNewObjSlotLists(t *testing.T) {
	p := &Plan{}
	a := p.NewObj(1, 1)
	b := p.NewObj(1, 1)
	c := p.NewObj(0, 0)
	_ = append(p.Objs[a].Ptrs, 7)
	_ = append(p.Objs[a].Data, 7)
	if p.Objs[b].Ptrs[0] != -1 || p.Objs[b].Data[0] != 0 {
		t.Fatalf("append to object %d reached object %d: %+v", a, b, p.Objs[b])
	}
	if p.Objs[c].Ptrs == nil || p.Objs[c].Data == nil {
		t.Fatalf("empty slot lists are nil: %+v", p.Objs[c])
	}
}

// TestRealizeRejectsMalformedPlans builds plans programmatically — the way
// library callers do — and breaks one invariant in each. Realize copies
// slot lists straight into the heap, so each must be refused with an error
// before anything is written.
func TestRealizeRejectsMalformedPlans(t *testing.T) {
	cases := map[string]func(p *Plan){
		"extra data word":      func(p *Plan) { p.Objs[0].Data = append(p.Objs[0].Data, 9) },
		"missing data word":    func(p *Plan) { p.Objs[0].Data = p.Objs[0].Data[:0] },
		"extra pointer slot":   func(p *Plan) { p.Objs[0].Ptrs = append(p.Objs[0].Ptrs, 1) },
		"missing pointer slot": func(p *Plan) { p.Objs[0].Ptrs = p.Objs[0].Ptrs[:1] },
		"pointer past end":     func(p *Plan) { p.Objs[0].Ptrs[0] = len(p.Objs) },
		"pointer below nil":    func(p *Plan) { p.Objs[0].Ptrs[1] = -2 },
		"root past end":        func(p *Plan) { p.AddRoot(len(p.Objs)) },
		"π out of range":       func(p *Plan) { p.Objs[1].Pi = object.MaxPi + 1 },
		"δ negative":           func(p *Plan) { p.Objs[1].Delta = -1 },
		"π far below zero":     func(p *Plan) { p.Objs[1].Pi = -1000 },
		"no objects":           func(p *Plan) { p.Objs = nil; p.Roots = nil },
	}
	for name, corrupt := range cases {
		p := &Plan{}
		a := p.NewObj(2, 1)
		b := p.NewObj(0, 3)
		p.Link(a, 0, b)
		p.AddRoot(a)
		corrupt(p)
		h := heap.New(256)
		if err := p.Realize(h); err == nil {
			t.Errorf("%s: Realize accepted the plan", name)
		}
		if h.UsedWords() != 0 || slices.ContainsFunc(h.Mem(), func(w object.Word) bool { return w != 0 }) {
			t.Errorf("%s: Realize wrote to the heap before rejecting the plan", name)
		}
		if _, err := p.BuildHeap(2.0); err == nil {
			t.Errorf("%s: BuildHeap accepted the plan", name)
		}
	}
}

func TestChainAndTreeShapes(t *testing.T) {
	p := &Plan{}
	head := p.Chain(5, 1, 0)
	n := 0
	for cur := head; cur >= 0; cur = p.Objs[cur].Ptrs[0] {
		n++
		if n > 10 {
			t.Fatal("chain does not terminate")
		}
	}
	if n != 5 {
		t.Fatalf("chain length %d", n)
	}

	p2 := &Plan{}
	root := p2.BalancedTree(3, 2, 1, 2)
	p2.AddRoot(root)
	obj, _ := p2.LiveStats()
	if obj != 1+3+9 {
		t.Fatalf("tree has %d nodes, want 13", obj)
	}

	p3 := &Plan{}
	r3 := p3.DegeneratePath(7, 1)
	p3.AddRoot(r3)
	if f := maxFrontier(p3); f > 2 {
		t.Fatalf("degenerate path frontier %d", f)
	}
}

func TestRandomGraphReachabilityQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%60
		rng := rand.New(rand.NewSource(seed))
		p := &Plan{}
		entry := p.RandomGraph(rng, n, 3, 4)
		p.AddRoot(entry)
		p.FillData(rng)
		liveObj, _ := p.LiveStats()
		if liveObj < 1 || liveObj > n {
			return false
		}
		h, err := p.BuildHeap(2.0)
		if err != nil {
			return false
		}
		return h.CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := zipf(rng, 10)
		if v < 0 || v >= 10 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[9]*2 {
		t.Errorf("zipf not skewed: %v", counts)
	}
}
