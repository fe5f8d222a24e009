package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"hwgc/internal/object"
)

// Spec is a named benchmark workload.
type Spec struct {
	Name string
	// Desc summarizes the graph shape and the paper property it reproduces.
	Desc string
	// Plan builds the object graph. scale ≥ 1 multiplies the problem size;
	// seed drives all randomized choices deterministically.
	Plan func(scale int, seed int64) *Plan
	// MaxScale is the largest scale whose plan passes Plan.Validate: past
	// it, an object whose pointer count grows with scale exceeds
	// object.MaxPi. Zero means no pointer count grows with scale.
	MaxScale int
}

// CheckScale refuses a scale past s.MaxScale, whose plan could not be
// built. It compares two integers and builds nothing.
func (s Spec) CheckScale(scale int) error {
	if s.MaxScale > 0 && scale > s.MaxScale {
		return fmt.Errorf("workload: %s scale %d exceeds its largest buildable scale %d", s.Name, scale, s.MaxScale)
	}
	return nil
}

// The registry of paper benchmarks, in the order of the paper's tables.
var specs = []Spec{
	{
		Name: "compress",
		Desc: "chain of large buffer objects; highly linear graph, no object-level parallelism beyond ~2",
		Plan: generate(compressPlan),
	},
	{
		Name: "cup",
		Desc: "parser tables with enormous breadth; gray population overflows the header FIFO",
		Plan: generate(cupPlan),
		// A second-level table holds cupTableFan pointers per scale.
		MaxScale: object.MaxPi / cupTableFan,
	},
	{
		Name: "db",
		Desc: "index pages and records with a shared string pool; scales well",
		Plan: generate(dbPlan),
	},
	{
		Name: "javac",
		Desc: "AST whose nodes reference a few hot symbol-table hubs; heavy header-lock contention",
		Plan: generate(javacPlan),
	},
	{
		Name: "javacc",
		Desc: "wide parse tree; scales well",
		Plan: generate(javaccPlan),
		// The root holds one pointer per scale.
		MaxScale: object.MaxPi,
	},
	{
		Name: "jflex",
		Desc: "long chain of DFA states with small bushy transition tables; limited parallelism",
		Plan: generate(jflexPlan),
	},
	{
		Name: "jlisp",
		Desc: "small heap of cons cells and atoms; the smallest benchmark",
		Plan: generate(jlispPlan),
		// The root holds jlispListsPerScale pointers per scale.
		MaxScale: object.MaxPi / jlispListsPerScale,
	},
	{
		Name: "search",
		Desc: "binary search tree degenerated to a path by sorted insertion; no parallelism",
		Plan: generate(searchPlan),
	},
	{
		Name: "blob",
		Desc: "a handful of huge buffer objects; object-level parallelism is bounded by the object count, sub-object strides are not",
		Plan: generate(blobPlan),
		// The directory holds blobsPerScale pointers per scale.
		MaxScale: object.MaxPi / blobsPerScale,
	},
}

// Names returns the benchmark names in table order.
func Names() []string {
	n := make([]string, len(specs))
	for i, s := range specs {
		n[i] = s.Name
	}
	return n
}

// Get returns the named benchmark spec.
func Get(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	all := Names()
	sort.Strings(all)
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, all)
}

// All returns every benchmark spec in table order.
func All() []Spec { return append([]Spec(nil), specs...) }

// generate turns a benchmark builder into a Spec.Plan function. The builder
// adds and wires the plan's objects, drawing its random choices from rng;
// generate then fills every data word from the same stream and drops the
// plan's slabs, so a generated plan holds nothing but Objs and Roots.
func generate(build func(p *Plan, rng *rand.Rand, scale int)) func(scale int, seed int64) *Plan {
	return func(scale int, seed int64) *Plan {
		rng := rand.New(rand.NewSource(seed))
		p := &Plan{}
		build(p, rng, scale)
		p.FillData(rng)
		p.ptrSlab, p.dataSlab = nil, nil
		return p
	}
}

// reserve sizes the plan's object list for n objects, the count the
// builder's loops will add (or, for randomly sized graphs, its bound), so
// the list is allocated once instead of grown by repeated appends.
func (p *Plan) reserve(n int) { p.Objs = make([]PlanObj, 0, n) }

// compressPlan models the SPEC compress loop: a chain of compression-buffer
// objects, each holding a large data block and a small auxiliary leaf. The
// chain serializes discovery, so at most ~two objects are in flight: the
// paper's Table I shows the work list almost never empty at 2 cores yet
// ~99 % empty at 4+, with no significant speedup (Fig. 5).
func compressPlan(p *Plan, rng *rand.Rand, scale int) {
	n := 15000 * scale
	garbage := n / 3
	p.reserve(n + garbage)
	head := p.Chain(n, 1, 3)
	p.AddRoot(head)
	p.sprinkleGarbage(rng, garbage, 8)
}

// searchPlan models a binary search tree built by sorted insertion: a pure
// path of two-pointer nodes. Discovery is fully serialized (Table I: 73.7 %
// empty already at 2 cores).
func searchPlan(p *Plan, rng *rand.Rand, scale int) {
	n, garbage := 15000*scale, 2000*scale
	p.reserve(n + garbage)
	root := p.DegeneratePath(n, 0)
	p.AddRoot(root)
	p.sprinkleGarbage(rng, garbage, 4)
}

// cupTableFan is the pointer count per scale of each of cup's
// second-level tables.
const cupTableFan = 280

// cupPlan models the CUP parser generator's action tables: a root table
// fanning out to second-level tables fanning out to tens of thousands of
// small entries. The gray population peaks far above the 32k-entry header
// FIFO, forcing scan-critical-section memory loads (Table II: cup is the
// benchmark with significant scan-lock stalls).
func cupPlan(p *Plan, rng *rand.Rand, scale int) {
	const fan1, garbage = 160, 4000
	fan2 := cupTableFan * scale
	p.reserve(1 + fan1*(1+fan2) + garbage)
	root := p.NewObj(fan1, 2)
	for i := 0; i < fan1; i++ {
		t := p.NewObj(fan2, 2)
		p.Link(root, i, t)
		for j := 0; j < fan2; j++ {
			leaf := p.NewObj(0, 2)
			p.Link(t, j, leaf)
		}
	}
	p.AddRoot(root)
	p.sprinkleGarbage(rng, garbage, 4)
}

// dbPlan models an in-memory database: chained index pages referencing
// fixed-shape records, whose key/value fields point into a shared string
// pool. Wide fan-out at every level; scales well.
func dbPlan(p *Plan, rng *rand.Rand, scale int) {
	const nStrings, pageFan = 2048, 128
	nPages, garbage := 56*scale, 3000*scale
	p.reserve(nStrings + nPages*(1+pageFan) + garbage)
	strings := make([]int, nStrings)
	for i := range strings {
		strings[i] = p.NewObj(0, 2+rng.Intn(8))
	}
	var firstPage, prevPage = -1, -1
	for pg := 0; pg < nPages; pg++ {
		page := p.NewObj(pageFan+1, 4) // slot 0: next page
		if prevPage >= 0 {
			p.Link(prevPage, 0, page)
		} else {
			firstPage = page
		}
		prevPage = page
		for r := 0; r < pageFan; r++ {
			rec := p.NewObj(2, 2)
			p.Link(rec, 0, strings[rng.Intn(nStrings)])
			p.Link(rec, 1, strings[rng.Intn(nStrings)])
			p.Link(page, 1+r, rec)
		}
	}
	p.AddRoot(firstPage)
	p.sprinkleGarbage(rng, garbage, 6)
}

// javacPlan models a compiler's AST plus symbol table: a bushy expression
// tree whose every node also references one of a handful of hot symbol
// objects, with heavily skewed popularity. Many objects referencing few
// objects is exactly the situation the paper identifies as the source of
// javac's header-lock stalls (Table II), and the target of the unlocked
// mark-read optimization.
func javacPlan(p *Plan, rng *rand.Rand, scale int) {
	const nSyms = 16
	nNodes, garbage := 15000*scale, 4000*scale
	p.reserve(nSyms + 1 + nNodes + garbage)
	syms := make([]int, nSyms)
	for i := range syms {
		syms[i] = p.NewObj(1, 6) // symbols link to a shared scope object
	}
	scope := p.NewObj(0, 8)
	for _, s := range syms {
		p.Link(s, 0, scope)
	}
	// Build a random bushy tree over the AST nodes: each node has 2 child
	// slots plus 1 symbol slot.
	nodes := make([]int, nNodes)
	for i := range nodes {
		nodes[i] = p.NewObj(3, 2)
		p.Link(nodes[i], 2, syms[zipf(rng, nSyms)])
	}
	for i := 1; i < nNodes; i++ {
		parent := nodes[rng.Intn(i)]
		slot := rng.Intn(2)
		// Chain into free slots; if occupied, descend once then give up in
		// favour of keeping the tree bushy and shallow.
		if p.Objs[parent].Ptrs[slot] >= 0 {
			slot = 1 - slot
		}
		if p.Objs[parent].Ptrs[slot] >= 0 {
			parent = p.Objs[parent].Ptrs[slot]
			slot = rng.Intn(2)
			if p.Objs[parent].Ptrs[slot] >= 0 {
				slot = 1 - slot
			}
		}
		if p.Objs[parent].Ptrs[slot] < 0 {
			p.Link(parent, slot, nodes[i])
		} else {
			// Last resort: hang it off the scope-free symbol slot of a
			// random earlier node's unused child slot chain — make it a
			// root so it is not lost.
			p.AddRoot(nodes[i])
		}
	}
	p.AddRoot(nodes[0])
	p.sprinkleGarbage(rng, garbage, 4)
}

// javaccPlan models JavaCC's wide parse tree: branching factor 8, shallow,
// with leaf token objects. Plenty of object-level parallelism.
func javaccPlan(p *Plan, rng *rand.Rand, scale int) {
	const branch, depth, garbage = 8, 5, 5000
	p.reserve(1 + scale*treeSize(branch, depth) + garbage)
	root := p.NewObj(scale, 2)
	for i := 0; i < scale; i++ {
		t := p.BalancedTree(branch, depth, 1, 6)
		p.Link(root, i, t)
	}
	p.AddRoot(root)
	p.sprinkleGarbage(rng, garbage, 4)
}

// jflexPlan models JFlex's scanner generator: a long chain of DFA states,
// each carrying a small bushy transition table. Parallelism is limited to
// the burst width, so starvation appears only at higher core counts
// (Table I: 5.5 % empty at 8 cores, 35.4 % at 16).
func jflexPlan(p *Plan, rng *rand.Rand, scale int) {
	const branch, depth = 4, 1
	nStates, garbage := 1100*scale, 1500*scale
	p.reserve(nStates*(1+treeSize(branch, depth)) + garbage)
	var head, prev = -1, -1
	for i := 0; i < nStates; i++ {
		st := p.NewObj(2, 4) // slot 0: next state, slot 1: transition table
		table := p.BalancedTree(branch, depth, 2, 5)
		p.Link(st, 1, table)
		if prev >= 0 {
			p.Link(prev, 0, st)
		} else {
			head = st
		}
		prev = st
	}
	p.AddRoot(head)
	p.sprinkleGarbage(rng, garbage, 4)
}

// blobsPerScale is the number of blobs per scale, all under one directory
// object.
const blobsPerScale = 6

// blobPlan is the extension workload for the Section VII stride experiment:
// a handful of huge buffer objects (image planes, compression ring buffers)
// under a single directory object. The object count bounds the object-level
// parallelism — with six objects, adding cores beyond six is useless no
// matter how the work list is managed — while stride (cache-line)
// granularity lets all cores share each bulk copy. (Note that *chains* of
// large objects do not defeat object granularity: the next pointer sits at
// the start of the body, so discovery cascades far ahead of the copies.)
func blobPlan(p *Plan, rng *rand.Rand, scale int) {
	n, garbage := blobsPerScale*scale, 32*scale
	p.reserve(1 + n + garbage)
	dir := p.NewObj(n, 2)
	for i := 0; i < n; i++ {
		blob := p.NewObj(0, 3800)
		p.Link(dir, i, blob)
	}
	p.AddRoot(dir)
	p.sprinkleGarbage(rng, garbage, 32)
}

// jlispListsPerScale is the number of lists per scale, all under one root.
const jlispListsPerScale = 24

// jlispPlan models a small Lisp interpreter heap: cons cells and atoms in
// random trees. The smallest benchmark (the paper's jlisp collection cycle
// is an order of magnitude shorter than the others).
func jlispPlan(p *Plan, rng *rand.Rand, scale int) {
	const depth = 7
	nAtoms, nLists, garbage := 400*scale, jlispListsPerScale*scale, 500*scale
	// Each list holds at most a full binary tree of depth-1 cons levels.
	p.reserve(nAtoms + 1 + nLists*treeSize(2, depth-1) + garbage)
	atoms := make([]int, nAtoms)
	for i := range atoms {
		atoms[i] = p.NewObj(0, 1)
	}
	var build func(depth int) int
	build = func(depth int) int {
		if depth == 0 || rng.Intn(8) == 0 {
			return atoms[rng.Intn(nAtoms)]
		}
		c := p.NewObj(2, 0)
		p.Link(c, 0, build(depth-1))
		p.Link(c, 1, build(depth-1))
		return c
	}
	root := p.NewObj(nLists, 0)
	for i := 0; i < nLists; i++ {
		p.Link(root, i, build(depth))
	}
	p.AddRoot(root)
	p.sprinkleGarbage(rng, garbage, 2)
}
