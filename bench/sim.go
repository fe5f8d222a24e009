package main

import (
	"fmt"

	"hwgc"
	"hwgc/internal/machine"
)

// Seed streams: every generated input takes its heap seed from the run seed
// and one of these, so one -seed fixes all inputs and no two streams share a
// seed.
const (
	streamSimPaper = iota + 1
	streamSimHierarchy
	streamHotKeys
	streamColdWindow
	streamColdWarm
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// opSeed is the heap seed of input i of a stream: positive and never 0,
// which a CollectRequest would read as "the default seed".
func opSeed(runSeed int64, stream, i int) int64 {
	return int64(splitmix64(splitmix64(uint64(runSeed))+uint64(stream)<<40+uint64(i))>>2) + 1
}

// simInput is one collection: a benchmark heap at scale 1 and a coprocessor
// configuration.
type simInput struct {
	bench string
	seed  int64
	cfg   hwgc.Config
}

func (in simInput) request() hwgc.CollectRequest {
	return hwgc.CollectRequest{Bench: in.bench, Seed: in.seed, Config: in.cfg}
}

func (in simInput) String() string {
	return fmt.Sprintf("%s@%d seed %d", in.bench, in.cfg.Cores, in.seed)
}

// paperPass is Fig. 5 + Fig. 6: every benchmark at every paper core count,
// with 0 and 20 cycles of extra memory latency.
func paperPass(o options) []simInput {
	var in []simInput
	for _, b := range hwgc.Workloads() {
		for _, c := range hwgc.PaperCoreCounts {
			for _, x := range []int{0, 20} {
				in = append(in, simInput{bench: b, cfg: hwgc.Config{Cores: c, ExtraMemLatency: x}})
			}
		}
	}
	return seedPass(o, streamSimPaper, in)
}

// hierarchyPass runs six benchmarks at 8 cores over the memory-hierarchy
// and concurrent-mutator configurations: fast-forward stays live only in the
// two pure-NUMA ones.
func hierarchyPass(o options) []simInput {
	cfgs := []hwgc.Config{
		{Cores: 8, NUMADomains: 4},
		{Cores: 8, NUMADomains: 4, NUMAPlacement: hwgc.PlacementLocal},
		{Cores: 8, L1Sets: 16},
		{Cores: 8, L1Sets: 16, NUMADomains: 4},
		{Cores: 8, MutatorOps: 1 << 40, BarrierMode: hwgc.BarrierSATB},
		{Cores: 8, MutatorOps: 1 << 40, BarrierMode: hwgc.BarrierIncUpdate},
	}
	var in []simInput
	for _, b := range []string{"jlisp", "javac", "db", "jflex", "javacc", "cup"} {
		for _, c := range cfgs {
			in = append(in, simInput{bench: b, cfg: c})
		}
	}
	return seedPass(o, streamSimHierarchy, in)
}

func seedPass(o options, stream int, in []simInput) []simInput {
	in = in[:o.inputs(len(in))]
	for i := range in {
		in[i].seed = opSeed(o.seed, stream, i)
	}
	return in
}

// ffCount is the fast-forward work of one collection.
type ffCount struct{ jumps, skipped int64 }

// runSim runs one collection through the simulator's layers one call at a
// time — heap build, machine construction, the cycle loop, finish — with
// each call a child span of parent.
func runSim(tr *tracer, parent, tid int, in simInput) (hwgc.Stats, ffCount, error) {
	var (
		h  *hwgc.Heap
		m  *machine.Machine
		st hwgc.Stats
	)
	err := tr.do(spanBuild, parent, tid, func() (err error) {
		h, err = hwgc.BuildWorkload(in.bench, 1, in.seed)
		return err
	})
	if err == nil {
		err = tr.do(spanMachineNew, parent, tid, func() (err error) {
			if m, err = machine.New(h, in.cfg); err == nil {
				m.BeginCollect()
			}
			return err
		})
	}
	if err == nil {
		err = tr.do(spanMachineStep, parent, tid, func() error {
			for {
				done, err := m.StepCycle()
				if err != nil || done {
					return err
				}
			}
		})
	}
	if err == nil {
		err = tr.do(spanMachineFinish, parent, tid, func() (err error) {
			st, err = m.FinishCollect()
			return err
		})
	}
	if err != nil {
		return hwgc.Stats{}, ffCount{}, fmt.Errorf("%s: %w", in, err)
	}
	jumps, skipped := m.FastForwardStats()
	return st, ffCount{jumps, skipped}, nil
}

// simAgg sums the exact simulated counters of a set of collections.
type simAgg struct {
	ops                             int64
	cycles, empty                   int64
	ffJumps, ffSkipped              int64
	stall                           [7]int64 // Table II order, per-core means
	memRequests, orderDelays        int64
	local, remote, l1Hits, l1Misses int64
	mshrFull                        int64
}

func (a *simAgg) add(st hwgc.Stats, ff ffCount) {
	a.ops++
	a.cycles += st.Cycles
	a.empty += st.EmptyWorklistCycles
	a.ffJumps += ff.jumps
	a.ffSkipped += ff.skipped
	m := st.Mean()
	for i, v := range []int64{m.ScanLockStall, m.FreeLockStall, m.HeaderLockStall,
		m.BodyLoadStall, m.BodyStoreStall, m.HeaderLoadStall, m.HeaderStoreStall} {
		a.stall[i] += v
	}
	a.memRequests += st.Mem.TotalRequests
	a.orderDelays += st.Mem.OrderDelays
	a.local += st.Mem.LocalAccesses
	a.remote += st.Mem.RemoteAccesses
	a.l1Hits += st.Mem.L1Hits
	a.l1Misses += st.Mem.L1Misses
	a.mshrFull += st.Mem.MSHRFullStalls
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simLayers adds the simulator's per-layer metrics: host time per layer
// call from the spans under root ("op" or "replay"), normalized by the
// simulated work of the same collections (timed), and the exact simulated
// counters of one pass over the inputs (exact), which repeat bit for bit for
// a given seed however many passes a run makes.
func simLayers(r *report, spans map[string]*spanStat, root string, timed, exact simAgg) error {
	need := []string{root, spanBuild, spanMachineNew, spanMachineStep, spanMachineFinish}
	for _, n := range need {
		if spans[n] == nil {
			return fmt.Errorf("traced run recorded no %s spans", n)
		}
	}
	step := spans[spanMachineStep]
	r.layer("workload.build_ms", 1e3*median(spans[spanBuild].durs), "ms")
	r.layer("workload.build_frac", spans[spanBuild].total/spans[root].total, "fraction")
	r.layer("machine.new_ms", 1e3*median(spans[spanMachineNew].durs), "ms")
	r.layer("machine.step_ms", 1e3*median(step.durs), "ms")
	r.layer("machine.finish_ms", 1e3*median(spans[spanMachineFinish].durs), "ms")
	r.layer("machine.ns_per_stepped_cycle", ratio(1e9*step.total, float64(timed.cycles-timed.ffSkipped)), "ns")
	r.layer("machine.sim_mcycles_per_s", ratio(float64(timed.cycles)/1e6, step.total), "Mcycles/s")
	cyc := float64(exact.cycles)
	ops := float64(exact.ops)
	r.layer("machine.sim_cycles_per_pass", cyc, "cycles")
	r.layer("machine.ff_skipped_frac", ratio(float64(exact.ffSkipped), cyc), "fraction")
	r.layer("machine.ff_jumps_per_op", ratio(float64(exact.ffJumps), ops), "count")
	for i, n := range []string{"scan_lock", "free_lock", "header_lock", "body_load", "body_store", "header_load", "header_store"} {
		r.layer("machine.stall_frac."+n, ratio(float64(exact.stall[i]), cyc), "fraction")
	}
	r.layer("machine.empty_worklist_frac", ratio(float64(exact.empty), cyc), "fraction")
	r.layer("mem.requests_per_op", ratio(float64(exact.memRequests), ops), "count")
	r.layer("mem.order_delays_per_op", ratio(float64(exact.orderDelays), ops), "count")
	r.layer("mem.remote_frac", ratio(float64(exact.remote), float64(exact.local+exact.remote)), "fraction")
	r.layer("mem.l1_hit_frac", ratio(float64(exact.l1Hits), float64(exact.l1Hits+exact.l1Misses)), "fraction")
	r.layer("mem.mshr_full_stalls_per_op", ratio(float64(exact.mshrFull), ops), "count")
	return nil
}

// simFixture runs passes over a fixed input set whose Stats the gcalgo
// oracle verified in setup; every timed op must reproduce its reference
// exactly.
type simFixture struct {
	in    []simInput
	ref   []hwgc.Stats
	ff    []ffCount // per input, from its timed ops
	timed simAgg    // traced ops
}

func setupSimPaper(o options) (fixture, error)     { return newSimFixture(paperPass(o)) }
func setupSimHierarchy(o options) (fixture, error) { return newSimFixture(hierarchyPass(o)) }

func newSimFixture(in []simInput) (*simFixture, error) {
	f := &simFixture{in: in, ref: make([]hwgc.Stats, len(in)), ff: make([]ffCount, len(in))}
	err := parallel(len(in), func(i int) error {
		h, err := hwgc.BuildWorkload(in[i].bench, 1, in[i].seed)
		if err != nil {
			return err
		}
		if f.ref[i], err = hwgc.CollectVerified(h, in[i].cfg); err != nil {
			return fmt.Errorf("%s: %w", in[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (f *simFixture) clients() int { return 1 }
func (f *simFixture) passLen() int { return len(f.in) }
func (f *simFixture) close()       {}

func (f *simFixture) op(tr *tracer, parent, c, seq int) error {
	i := seq % len(f.in)
	st, ff, err := runSim(tr, parent, c, f.in[i])
	if err != nil {
		return err
	}
	if d := st.DiffFields(&f.ref[i]); len(d) > 0 {
		return fmt.Errorf("%s: Stats differ from the verified reference: %s", f.in[i], d[0])
	}
	f.ff[i] = ff
	if tr != nil {
		f.timed.add(st, ff)
	}
	return nil
}

func (f *simFixture) finish(tr *tracer, r *report) ([]int, error) {
	if tr == nil {
		return nil, nil
	}
	var exact simAgg
	for i, st := range f.ref {
		exact.add(st, f.ff[i])
	}
	return nil, simLayers(r, tr.stats(), spanOp, f.timed, exact)
}
