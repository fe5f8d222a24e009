package workload

import "math/rand"

// Generic graph shapes used by the benchmark builders, the examples, and the
// test suite.

// Chain appends a linked list of n nodes (π=ptrsPerNode ≥ 1, slot 0 is the
// next-pointer) and returns the index of the head. Extra pointer slots stay
// nil unless wired by the caller.
func (p *Plan) Chain(n, ptrsPerNode, delta int) (head int) {
	if n <= 0 {
		return -1
	}
	head = p.NewObj(ptrsPerNode, delta)
	prev := head
	for i := 1; i < n; i++ {
		o := p.NewObj(ptrsPerNode, delta)
		p.Link(prev, 0, o)
		prev = o
	}
	return head
}

// BalancedTree appends a complete tree with the given branching factor and
// depth (depth 0 = a single leaf) and returns the root index. Interior nodes
// have π=branch and δ=innerDelta; leaves have π=0 and δ=leafDelta.
func (p *Plan) BalancedTree(branch, depth, innerDelta, leafDelta int) int {
	if depth == 0 {
		return p.NewObj(0, leafDelta)
	}
	root := p.NewObj(branch, innerDelta)
	for i := 0; i < branch; i++ {
		c := p.BalancedTree(branch, depth-1, innerDelta, leafDelta)
		p.Link(root, i, c)
	}
	return root
}

// treeSize returns the number of nodes BalancedTree(branch, depth, ...)
// appends.
func treeSize(branch, depth int) int {
	n, level := 0, 1
	for d := 0; d <= depth; d++ {
		n += level
		level *= branch
	}
	return n
}

// DegeneratePath appends a binary-tree path of n nodes — the shape a binary
// search tree assumes under sorted insertion. Each node has two pointer
// slots; only one is used, alternating sides, so the graph is maximally
// linear while keeping a realistic node shape.
func (p *Plan) DegeneratePath(n, delta int) int {
	if n <= 0 {
		return -1
	}
	root := p.NewObj(2, delta)
	prev := root
	for i := 1; i < n; i++ {
		o := p.NewObj(2, delta)
		p.Link(prev, i%2, o)
		prev = o
	}
	return root
}

// RandomGraph appends n nodes with random shapes and random wiring —
// including cycles, self-loops, shared children and nil slots — and returns
// the index of the designated entry node. It is the workhorse of the
// property-based tests.
func (p *Plan) RandomGraph(rng *rand.Rand, n, maxPi, maxDelta int) int {
	if n <= 0 {
		return -1
	}
	base := len(p.Objs)
	for i := 0; i < n; i++ {
		p.NewObj(rng.Intn(maxPi+1), rng.Intn(maxDelta+1))
	}
	for i := base; i < base+n; i++ {
		o := &p.Objs[i]
		for s := range o.Ptrs {
			switch rng.Intn(5) {
			case 0: // nil
			case 1: // self-loop
				o.Ptrs[s] = i
			default: // arbitrary node, forward or backward (cycles)
				o.Ptrs[s] = base + rng.Intn(n)
			}
		}
	}
	// Make the entry node reach a decent fraction of the graph by wiring a
	// random spanning chain through it.
	entry := base
	prev := entry
	for i := base + 1; i < base+n; i++ {
		if len(p.Objs[prev].Ptrs) == 0 {
			prev = i
			continue
		}
		p.Objs[prev].Ptrs[rng.Intn(len(p.Objs[prev].Ptrs))] = i
		prev = i
	}
	return entry
}

// zipf draws an index in [0,n) with a heavy skew toward 0, approximating the
// reference popularity of symbol-table entries (the javac hub effect).
func zipf(rng *rand.Rand, n int) int {
	f := rng.Float64()
	f = f * f
	return int(f * f * float64(n))
}
