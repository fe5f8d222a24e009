// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI), plus the ablations. The simulated coprocessor's results are
// deterministic clock-cycle counts, reported as custom metrics
// ("gc-clock-cycles", "speedup", "empty-%", ...); Go's wall-clock ns/op for
// those benchmarks measures only the simulator itself. The software baseline
// collectors (BenchmarkBaseline*) are real parallel collectors, so for them
// ns/op is the measurement.
//
// Mapping to the paper:
//
//	BenchmarkFig5      — Figure 5, speedup vs. cores per benchmark
//	BenchmarkFig6      — Figure 6, ditto with +20 cycles memory latency
//	BenchmarkTab1      — Table I, empty-work-list fraction
//	BenchmarkTab2      — Table II, stall breakdown at 16 cores
//	BenchmarkFIFO      — ablation A1, header FIFO capacity (cup)
//	BenchmarkMarkOpt   — ablation A2, unlocked mark-read (javac)
//	BenchmarkBandwidth — ablation A3, memory bandwidth (db)
//	BenchmarkBaseline  — ablation A4, software-parallel collectors
package hwgc

import (
	"fmt"
	"testing"

	"hwgc/internal/machine"
)

// benchSeed keeps every benchmark deterministic.
const benchSeed = 42

// runSim builds the workload and collects once per iteration, reporting the
// simulated clock cycles of the last run.
func runSim(b *testing.B, bench string, cfg Config) Stats {
	b.Helper()
	var st Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := BuildWorkload(bench, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err = Collect(h, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Cycles), "gc-clock-cycles")
	return st
}

// A simCase is one named collection of a workload at scale 1 and benchSeed.
// Its name is the sub-benchmark's and, prefixed by its family, the row's in
// testdata/pins.json.
type simCase struct {
	name  string
	bench string
	cfg   Config
}

// A simFamily is a benchmark's case list plus the deterministic metrics it
// reports per case. TestPins iterates the same families, so a case is
// spelled once and pinned exactly where it is benchmarked.
type simFamily struct {
	name    string
	cases   []simCase
	metrics func(testing.TB, Stats) pinned
}

// scalingCases are the points of Fig. 5 (and Fig. 6 on base): every
// workload at every paper core count, in that order.
func scalingCases(base Config) []simCase {
	var cases []simCase
	for _, bench := range Workloads() {
		for _, cores := range PaperCoreCounts {
			cfg := base
			cfg.Cores = cores
			cases = append(cases, simCase{fmt.Sprintf("%s/cores=%d", bench, cores), bench, cfg})
		}
	}
	return cases
}

func cyclesOnly(_ testing.TB, st Stats) pinned { return pinned{"gc-clock-cycles": st.Cycles} }

var (
	fig5 = simFamily{"Fig5", scalingCases(Config{}), cyclesOnly}
	fig6 = simFamily{"Fig6", scalingCases(Config{ExtraMemLatency: 20}), cyclesOnly}
)

// benchFamily runs each case of f as a sub-benchmark reporting f's metrics,
// plus its speedup over the 1-core run of the same workload when one came
// earlier in the case list (as in Fig. 5 and Fig. 6).
func benchFamily(b *testing.B, f simFamily) {
	oneCore := map[string]int64{}
	for _, c := range f.cases {
		b.Run(c.name, func(b *testing.B) {
			st := runSim(b, c.bench, c.cfg)
			for name, v := range f.metrics(b, st) {
				b.ReportMetric(float64(v), name)
			}
			if c.cfg.Cores == 1 {
				oneCore[c.bench] = st.Cycles
			}
			if c1, ok := oneCore[c.bench]; ok && st.Cycles > 0 {
				b.ReportMetric(float64(c1)/float64(st.Cycles), "speedup")
			}
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: GC speedup for 1..16 cores with the
// prototype's memory parameters.
func BenchmarkFig5(b *testing.B) { benchFamily(b, fig5) }

// BenchmarkFig6 regenerates Figure 6: the same sweep with an artificial 20
// clock cycles added to every memory access — scalability improves because
// more stalled cores are needed to exhaust the memory bandwidth.
func BenchmarkFig6(b *testing.B) { benchFamily(b, fig6) }

// BenchmarkTab1 regenerates Table I: the fraction of clock cycles during
// which the work list is empty.
func BenchmarkTab1(b *testing.B) {
	for _, bench := range Workloads() {
		b.Run(bench, func(b *testing.B) {
			for _, cores := range PaperCoreCounts {
				b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
					st := runSim(b, bench, Config{Cores: cores})
					b.ReportMetric(100*st.EmptyWorklistFraction(), "empty-%")
				})
			}
		})
	}
}

// BenchmarkTab2 regenerates Table II: the per-cause stall breakdown of a
// 16-core collection, as mean stall cycles per core.
func BenchmarkTab2(b *testing.B) {
	for _, bench := range Workloads() {
		b.Run(bench, func(b *testing.B) {
			st := runSim(b, bench, Config{Cores: 16})
			m := st.Mean()
			b.ReportMetric(float64(m.ScanLockStall), "scan-lock-stall")
			b.ReportMetric(float64(m.FreeLockStall), "free-lock-stall")
			b.ReportMetric(float64(m.HeaderLockStall), "header-lock-stall")
			b.ReportMetric(float64(m.BodyLoadStall), "body-load-stall")
			b.ReportMetric(float64(m.BodyStoreStall), "body-store-stall")
			b.ReportMetric(float64(m.HeaderLoadStall), "header-load-stall")
			b.ReportMetric(float64(m.HeaderStoreStall), "header-store-stall")
		})
	}
}

// BenchmarkFIFO is ablation A1: cup at 16 cores across header-FIFO
// capacities. Overflow forces gray-header loads inside the scan critical
// section; the scan-lock stall metric shows the effect.
func BenchmarkFIFO(b *testing.B) {
	for _, capacity := range []int{1024, 8192, 32768, 131072} {
		b.Run(fmt.Sprintf("capacity=%d", capacity), func(b *testing.B) {
			st := runSim(b, "cup", Config{Cores: 16, FIFOCapacity: capacity})
			b.ReportMetric(float64(st.Mean().ScanLockStall), "scan-lock-stall")
			b.ReportMetric(float64(st.FIFODrops), "fifo-drops")
		})
	}
}

// BenchmarkMarkOpt is ablation A2: javac at 16 cores with and without the
// unlocked mark-read optimization the paper proposes in Section VI-B.
func BenchmarkMarkOpt(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("opt=%v", on), func(b *testing.B) {
			st := runSim(b, "javac", Config{Cores: 16, OptUnlockedMarkRead: on})
			b.ReportMetric(float64(st.Mean().HeaderLockStall), "header-lock-stall")
		})
	}
}

// BenchmarkBandwidth is ablation A3: db's 16-core speedup as a function of
// memory bandwidth (the second scalability limiter named in Section VII).
func BenchmarkBandwidth(b *testing.B) {
	for _, bw := range []int{2, 4, 6, 8, 12} {
		b.Run(fmt.Sprintf("bw=%d", bw), func(b *testing.B) {
			var c1 int64
			for _, cores := range []int{1, 16} {
				st := runSim(b, "db", Config{Cores: cores, MemBandwidth: bw})
				if cores == 1 {
					c1 = st.Cycles
				} else {
					b.ReportMetric(float64(c1)/float64(st.Cycles), "speedup16")
				}
			}
		})
	}
}

// BenchmarkBaseline is ablation A4: the software-parallel collectors of the
// paper's Section III survey, as real goroutine-parallel collectors. Here
// ns/op is the true measurement; sync-ops/object and wasted words quantify
// the trade-offs the paper discusses.
func BenchmarkBaseline(b *testing.B) {
	for _, name := range Baselines() {
		b.Run(name, func(b *testing.B) {
			for _, workers := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					var res BaselineResult
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						h, err := BuildWorkload("db", 1, benchSeed)
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						res, err = RunBaseline(name, h, workers)
						if err != nil {
							b.Fatal(err)
						}
					}
					if res.LiveObjects > 0 {
						b.ReportMetric(float64(res.Sync.Total())/float64(res.LiveObjects), "sync-ops/obj")
						b.ReportMetric(float64(res.WastedWords), "wasted-words")
					}
				})
			}
		})
	}
}

// BenchmarkReference measures the untimed sequential reference collector —
// the software specification every other collector is checked against.
func BenchmarkReference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := BuildWorkload("db", 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := CollectSequential(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracle measures the verification oracle's layers on javacc: the
// canonical graph walk (Snapshot), the full post-collection check (Verify)
// and the structural walk alone (CheckIntegrity). Verify and CheckIntegrity
// run on the heap after a reference collection, as CollectVerified runs them.
func BenchmarkOracle(b *testing.B) {
	h, err := BuildWorkload("javacc", 1, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	before, err := Snapshot(h)
	if err != nil {
		b.Fatal(err)
	}
	collected := h.Clone()
	if _, _, err := CollectSequential(collected); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"snapshot", func() error { _, err := Snapshot(h); return err }},
		{"verify", func() error { return Verify(before, collected) }},
		{"integrity", collected.CheckIntegrity},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput reports how fast the cycle-stepped simulator
// itself runs (simulated clock cycles per second of wall time), for sizing
// larger experiments.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := BuildWorkload("javacc", 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := Collect(h, Config{Cores: 16})
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkBuildWorkload measures the heap-build layer alone — plan
// generation plus Realize into a fresh heap — per benchmark, with its
// allocation count. It is a layer benchmark for profiling, not a CI gate.
func BenchmarkBuildWorkload(b *testing.B) {
	for _, bench := range Workloads() {
		b.Run(bench, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildWorkload(bench, 1, benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFastForward quantifies the event-driven fast-forward by running
// the same latency-bound collection fully stepped and with fast-forwarding
// enabled (the default). The reported gc-clock-cycles must be identical in
// both modes; only the wall time may differ.
func BenchmarkFastForward(b *testing.B) {
	cfg := Config{Cores: 1, ExtraMemLatency: 20}
	for _, mode := range []struct {
		name string
		noFF bool
	}{
		{"stepped", true},
		{"event-driven", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles, skipped int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, err := BuildWorkload("javacc", 1, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				m, err := machine.New(h, cfg)
				if err != nil {
					b.Fatal(err)
				}
				m.NoFastForward = mode.noFF
				b.StartTimer()
				st, err := m.Collect()
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
				_, skipped = m.FastForwardStats()
			}
			b.ReportMetric(float64(cycles), "gc-clock-cycles")
			b.ReportMetric(100*float64(skipped)/float64(cycles), "skipped-%")
		})
	}
}

// BenchmarkStride is extension E1 (paper §VII): sub-object work distribution
// on the blob workload, whose object-level parallelism is bounded by its
// object count.
func BenchmarkStride(b *testing.B) {
	for _, stride := range []int{0, 64} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			var c1 int64
			for _, cores := range []int{1, 16} {
				st := runSim(b, "blob", Config{Cores: cores, StrideWords: stride})
				if cores == 1 {
					c1 = st.Cycles
				} else {
					b.ReportMetric(float64(c1)/float64(st.Cycles), "speedup16")
				}
			}
		})
	}
}

// BenchmarkHeaderCache is extension E2 (paper §VII): an on-chip header cache
// absorbing repeated forwarding-pointer loads (javac's hub traffic).
func BenchmarkHeaderCache(b *testing.B) {
	for _, lines := range []int{0, 4096} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			st := runSim(b, "javac", Config{Cores: 16, HeaderCacheLines: lines})
			b.ReportMetric(float64(st.Mean().HeaderLoadStall), "header-load-stall")
		})
	}
}

// barrierModes is extension E4: the same concurrent jlisp collection under
// each write-barrier mode, through the config-driven mutator path the
// serving stack uses. Cycles, barrier cycles and floating words are exact
// deterministic outputs, so a change to barrier cost attribution, mutator
// scheduling or shade accounting shows in TestPins.
var barrierModes = simFamily{"BarrierModes", []simCase{
	{"none", "jlisp", Config{Cores: 8, MutatorOps: 1 << 40}},
	{"satb", "jlisp", Config{Cores: 8, MutatorOps: 1 << 40, BarrierMode: BarrierSATB}},
	{"incupdate", "jlisp", Config{Cores: 8, MutatorOps: 1 << 40, BarrierMode: BarrierIncUpdate}},
}, func(tb testing.TB, st Stats) pinned {
	if st.Mutator == nil {
		tb.Fatal("concurrent run reported no mutator stats")
	}
	return pinned{
		"gc-clock-cycles": st.Cycles,
		"barrier-cycles":  st.Mutator.BarrierCycles,
		"floating-words":  st.Mutator.FloatingWords,
	}
}}

// numaModes is extension E5: the jlisp collection on the flat machine and
// on a 4-domain NUMA machine under naive and locality-aware tospace
// placement. Cycles and the local/remote access split are exact, so a
// change to domain classification or placement shows in TestPins.
var numaModes = simFamily{"NUMAModes", []simCase{
	{"flat", "jlisp", Config{Cores: 8}},
	{"naive", "jlisp", Config{Cores: 8, NUMADomains: 4}},
	{"local", "jlisp", Config{Cores: 8, NUMADomains: 4, NUMAPlacement: PlacementLocal}},
}, func(_ testing.TB, st Stats) pinned {
	return pinned{
		"gc-clock-cycles": st.Cycles,
		"local-accesses":  st.Mem.LocalAccesses,
		"remote-accesses": st.Mem.RemoteAccesses,
	}
}}

// cacheModels is the cache half of extension E5: the private-L1/shared-L2
// model alone and composed with NUMA. Cycles and the hit/miss words are
// exact, so a change to tag handling, MSHR accounting or the hit-latency
// path shows in TestPins.
var cacheModels = simFamily{"CacheModel", []simCase{
	{"cache", "jlisp", Config{Cores: 8, L1Sets: 16}},
	{"cache-numa", "jlisp", Config{Cores: 8, L1Sets: 16, NUMADomains: 4}},
}, func(tb testing.TB, st Stats) pinned {
	if st.Mem.L1Hits == 0 {
		tb.Fatal("cache run recorded no L1 hits")
	}
	return pinned{
		"gc-clock-cycles": st.Cycles,
		"l1-hit-words":    st.Mem.L1Hits,
		"l2-hit-words":    st.Mem.L2Hits,
		"dram-words":      st.Mem.L2Misses,
	}
}}

// BenchmarkBarrierModes times the barrierModes cases.
func BenchmarkBarrierModes(b *testing.B) { benchFamily(b, barrierModes) }

// BenchmarkNUMAModes times the numaModes cases.
func BenchmarkNUMAModes(b *testing.B) { benchFamily(b, numaModes) }

// BenchmarkCacheModel times the cacheModels cases.
func BenchmarkCacheModel(b *testing.B) { benchFamily(b, cacheModels) }
