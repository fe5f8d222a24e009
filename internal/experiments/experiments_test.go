package experiments

import (
	"strings"
	"testing"

	"hwgc"
)

// The experiment tests use a reduced benchmark subset so the whole suite
// stays fast; the full sweeps run via cmd/experiments and the root-level
// benchmarks.

func TestScalingShape(t *testing.T) {
	rows, err := Scaling([]string{"jlisp", "search"}, []int{1, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0].Speedup) != 2 {
		t.Fatalf("row shape wrong: %+v", rows)
	}
	if rows[0].Speedup[0] != 1.0 {
		t.Fatalf("1-core speedup not 1.0: %f", rows[0].Speedup[0])
	}
	// jlisp scales; search does not.
	if rows[0].Speedup[1] < 3 {
		t.Errorf("jlisp 4-core speedup %f, want ≥3", rows[0].Speedup[1])
	}
	if rows[1].Speedup[1] > 2 {
		t.Errorf("search 4-core speedup %f, want ≤2", rows[1].Speedup[1])
	}
}

func TestEmptyWorklistShape(t *testing.T) {
	rows, err := EmptyWorklist([]string{"search"}, []int{1, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := rows[0].Fraction
	if f[0] > 0.01 {
		t.Errorf("search at 1 core reports %.2f%% empty; the paper's metric is ~0 at 1 core", 100*f[0])
	}
	if f[1] < 0.9 {
		t.Errorf("search at 4 cores reports %.2f%% empty; want ≥90%%", 100*f[1])
	}
}

func TestStallBreakdownShape(t *testing.T) {
	rows, err := StallBreakdown([]string{"javac", "cup"}, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var javac, cup StallRow
	for _, r := range rows {
		switch r.Bench {
		case "javac":
			javac = r
		case "cup":
			cup = r
		}
	}
	// The paper's two signatures: javac is the header-lock benchmark, cup
	// the scan-lock benchmark.
	if javac.Mean.HeaderLockStall <= cup.Mean.HeaderLockStall {
		t.Errorf("javac header-lock stalls (%d) not above cup (%d)",
			javac.Mean.HeaderLockStall, cup.Mean.HeaderLockStall)
	}
	if cup.Mean.ScanLockStall <= javac.Mean.ScanLockStall {
		t.Errorf("cup scan-lock stalls (%d) not above javac (%d)",
			cup.Mean.ScanLockStall, javac.Mean.ScanLockStall)
	}
}

func TestFIFOSweepMonotone(t *testing.T) {
	pts, err := FIFOSweep("cup", []int{0, 32768, 131072}, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Cycles <= pts[2].Cycles {
		t.Errorf("disabling the FIFO (%d cycles) not slower than a large FIFO (%d)",
			pts[0].Cycles, pts[2].Cycles)
	}
	if pts[2].FIFODrops != 0 {
		t.Errorf("large FIFO still dropped %d entries", pts[2].FIFODrops)
	}
	if pts[1].FIFODrops == 0 {
		t.Errorf("32k FIFO did not overflow on cup; the workload must exceed it")
	}
}

func TestMarkOptRemovesHeaderLockStalls(t *testing.T) {
	rows, err := MarkOpt([]string{"javac"}, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.HdrLockOn*10 > r.HdrLockOff {
		t.Errorf("optimization left %d of %d header-lock stalls", r.HdrLockOn, r.HdrLockOff)
	}
}

func TestBandwidthSweepMonotone(t *testing.T) {
	pts, err := BandwidthSweep("db", []int{2, 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Speedup16 <= pts[0].Speedup16 {
		t.Errorf("more bandwidth did not improve 16-core speedup: %.2f -> %.2f",
			pts[0].Speedup16, pts[1].Speedup16)
	}
}

func TestPaperReferenceTablesComplete(t *testing.T) {
	for _, b := range Benches() {
		if _, ok := PaperTable1[b]; !ok {
			t.Errorf("PaperTable1 missing %s", b)
		}
		p, ok := PaperTable2[b]
		if !ok {
			t.Errorf("PaperTable2 missing %s", b)
			continue
		}
		if p.Total <= 0 {
			t.Errorf("PaperTable2 %s has no total", b)
		}
	}
	if PaperMaxSpeedup8 != 7.4 || PaperMaxSpeedup16 != 12.1 {
		t.Error("headline speedups do not match the abstract")
	}
}

func TestFormatScaling(t *testing.T) {
	rows := []ScalingRow{{Bench: "x", Cores: []int{1, 2}, Speedup: []float64{1, 1.9}}}
	out := FormatScaling("T", rows).String()
	if !strings.Contains(out, "1.90") || !strings.Contains(out, "2 cores") {
		t.Fatalf("format wrong:\n%s", out)
	}
	if FormatScaling("T", nil) == nil {
		t.Fatal("empty rows not handled")
	}
}

func TestOptionsNorm(t *testing.T) {
	o := Options{}.norm()
	if o.Scale != 1 || o.Seed == 0 {
		t.Fatalf("norm wrong: %+v", o)
	}
}

func TestStrideSweepLiftsBlobBound(t *testing.T) {
	pts, err := StrideSweep("blob", []int{0, 64}, []int{1, 16}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Speedup[1] <= pts[0].Speedup[1] {
		t.Errorf("strides (%.2f) did not beat object granularity (%.2f) on blob",
			pts[1].Speedup[1], pts[0].Speedup[1])
	}
}

func TestHeaderCacheHelpsJavac(t *testing.T) {
	rows, err := HeaderCache([]string{"javac"}, 4096, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.HitRate <= 0.2 {
		t.Errorf("javac header cache hit rate %.2f; hub traffic should hit", r.HitRate)
	}
	if r.CyclesOn >= r.CyclesOff {
		t.Errorf("header cache did not shorten javac: %d vs %d", r.CyclesOn, r.CyclesOff)
	}
	if r.HdrLoadsOn >= r.HdrLoadsOff {
		t.Errorf("header loads to memory not reduced: %d vs %d", r.HdrLoadsOn, r.HdrLoadsOff)
	}
}

func TestHeapSizeSweepInvariant(t *testing.T) {
	pts, err := HeapSizeSweep("jlisp", []float64{1.2, 4.0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Cycles16 != pts[1].Cycles16 {
		t.Errorf("heap size changed the collection cost: %d vs %d cycles (copying cost must track the live set)",
			pts[0].Cycles16, pts[1].Cycles16)
	}
}

func TestPausesShrinkWithCores(t *testing.T) {
	pts, err := Pauses([]int{1, 8}, 16*1024, 20000, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Collections == 0 || pts[0].Collections != pts[1].Collections {
		t.Fatalf("churn not identical across rows: %+v", pts)
	}
	if pts[1].MeanPause >= pts[0].MeanPause || pts[1].MaxPause >= pts[0].MaxPause {
		t.Errorf("8 cores did not shrink pauses: %+v", pts)
	}
}

func TestScaleRobustness(t *testing.T) {
	pts, err := ScaleRobustness("jlisp", []int{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Speedup16 < 8 {
			t.Errorf("scale %d: 16-core speedup %.2f collapsed", p.Bandwidth, p.Speedup16)
		}
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var b strings.Builder
	if err := WriteReport(&b, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 5", "Figure 6", "Table I", "Table II",
		"header FIFO", "stride", "header cache", "concurrent",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

// TestGoldenResults pins the headline deterministic measurements exactly.
// The simulator and the workloads are fully deterministic, so any change to
// these numbers is a deliberate model or workload change — update the
// goldens (and EXPERIMENTS.md) together with it.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is slow")
	}
	rows, err := Scaling([]string{"db", "compress"}, []int{1, 16}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[string][2]int64{
		// benchmark -> {cycles at 1 core, cycles at 16 cores}
		"db":       {304101, 24759},
		"compress": {345101, 121053},
	}
	for _, r := range rows {
		want := goldens[r.Bench]
		if r.Cycles[0] != want[0] || r.Cycles[1] != want[1] {
			t.Errorf("%s: cycles = {%d, %d}, golden {%d, %d} — deterministic result changed",
				r.Bench, r.Cycles[0], r.Cycles[1], want[0], want[1])
		}
	}
}

func TestSeedRobustness(t *testing.T) {
	rows, err := SeedRobustness([]string{"jlisp"}, []int64{1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Min > r.Mean || r.Mean > r.Max {
		t.Fatalf("ordering wrong: %+v", r)
	}
	if r.Min < 8 {
		t.Errorf("jlisp speedup collapsed under some seed: %+v", r)
	}
	if r.Max-r.Min > 3 {
		t.Errorf("speedup unstable across seeds: %+v", r)
	}
}

// TestCompareVariants runs both scenario families on jlisp at 4 cores: each
// family's run is repeatable bit for bit, its rows carry the per-family
// signatures, and its variants keep the knobs a base config overrides.
func TestCompareVariants(t *testing.T) {
	for _, tc := range []struct {
		name      string
		variants  []Variant
		checkName string
		check     func(t *testing.T, rs []VariantResult)
		applyName string
		override  hwgc.Config   // a base that sets the knob the family defaults
		want      []hwgc.Config // each variant applied to override, in order
	}{
		{"barriers", BarrierVariants, "counters", checkBarrierRows, "defaults",
			hwgc.Config{Cores: 2, MutatorOps: 7},
			[]hwgc.Config{
				{Cores: 2},
				{Cores: 2, MutatorOps: 7},
				{Cores: 2, MutatorOps: 7, BarrierMode: hwgc.BarrierSATB},
				{Cores: 2, MutatorOps: 7, BarrierMode: hwgc.BarrierIncUpdate},
			}},
		{"numa", NUMAVariants, "locality", checkNUMARows, "mode_mapping",
			hwgc.Config{Cores: 2, NUMADomains: 8, NUMARemotePenalty: 3},
			[]hwgc.Config{
				{Cores: 2, NUMARemotePenalty: 3, NUMAPlacement: hwgc.PlacementNaive},
				{Cores: 2, NUMADomains: 8, NUMARemotePenalty: 3, NUMAPlacement: hwgc.PlacementNaive},
				{Cores: 2, NUMADomains: 8, NUMARemotePenalty: 3, NUMAPlacement: hwgc.PlacementLocal},
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Base: hwgc.Config{Cores: 4}, Verify: true}
			a, err := CompareVariants("jlisp", tc.variants, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(tc.variants) {
				t.Fatalf("CompareVariants returned %d rows, want %d", len(a), len(tc.variants))
			}
			for i := range a {
				if a[i].Label != tc.variants[i].Label {
					t.Fatalf("row %d is %q, want %q", i, a[i].Label, tc.variants[i].Label)
				}
			}
			t.Run("deterministic", func(t *testing.T) {
				b, err := CompareVariants("jlisp", tc.variants, o)
				if err != nil {
					t.Fatal(err)
				}
				for i := range a {
					if diffs := a[i].Stats.DiffFields(&b[i].Stats); diffs != nil {
						t.Fatalf("%s: repeated run differs: %v", a[i].Label, diffs)
					}
				}
			})
			t.Run(tc.checkName, func(t *testing.T) { tc.check(t, a) })
			t.Run(tc.applyName, func(t *testing.T) {
				for i, v := range tc.variants {
					if c := v.Apply(tc.override); c != tc.want[i] {
						t.Fatalf("%s applied to %+v = %+v, want %+v", v.Label, tc.override, c, tc.want[i])
					}
				}
			})
		})
	}
}

func checkBarrierRows(t *testing.T, rs []VariantResult) {
	if rs[0].Stats.Mutator != nil {
		t.Fatal("stop-the-world baseline reported mutator statistics")
	}
	for _, r := range rs[1:] {
		if r.Config.MutatorOps != defaultMutatorOps {
			t.Fatalf("%s: MutatorOps = %d, want %d", r.Label, r.Config.MutatorOps, int64(defaultMutatorOps))
		}
		ms := r.Stats.Mutator
		if ms == nil {
			t.Fatalf("%s: no mutator statistics", r.Label)
		}
		if ms.Ops == 0 || ms.PtrStores == 0 {
			t.Fatalf("%s: mutator made no progress: %+v", r.Label, ms)
		}
		if r.Label == "none" {
			if ms.BarrierInvocations != 0 || ms.BarrierCycles != 0 || ms.ShadedObjects != 0 {
				t.Fatalf("none: barrier fired: %+v", ms)
			}
		} else {
			if ms.BarrierInvocations == 0 || ms.BarrierCycles == 0 {
				t.Fatalf("%s: barrier never fired: %+v", r.Label, ms)
			}
			if ms.BarrierCycles < ms.BarrierInvocations {
				t.Fatalf("%s: fewer barrier cycles than invocations: %+v", r.Label, ms)
			}
		}
		if ms.FloatingWords < 0 || ms.FloatingObjects > ms.ShadedObjects {
			t.Fatalf("%s: implausible floating garbage: %+v", r.Label, ms)
		}
		if ms.MarkTermCycles < 0 || ms.MarkTermCycles > r.Stats.Cycles {
			t.Fatalf("%s: mark-termination cycles out of range: %+v", r.Label, ms)
		}
	}
}

func checkNUMARows(t *testing.T, rs []VariantResult) {
	flat, naive, local := rs[0], rs[1], rs[2]
	if flat.Stats.Mem.LocalAccesses != 0 || flat.Stats.Mem.RemoteAccesses != 0 {
		t.Fatalf("flat baseline classified accesses: %+v", flat.Stats.Mem)
	}
	if remoteFraction(flat.Stats) != 0 {
		t.Fatal("flat baseline has a nonzero remote fraction")
	}
	for _, r := range rs[1:] {
		if r.Config.NUMADomains != defaultDomains {
			t.Fatalf("%s: domains = %d, want default %d", r.Label, r.Config.NUMADomains, defaultDomains)
		}
		if f := remoteFraction(r.Stats); f <= 0 || f >= 1 {
			t.Fatalf("%s: remote fraction %f out of (0, 1)", r.Label, f)
		}
		// NUMA penalties can only slow the collection down.
		if r.Stats.Cycles < flat.Stats.Cycles {
			t.Fatalf("%s: NUMA run faster than the flat baseline (%d < %d)",
				r.Label, r.Stats.Cycles, flat.Stats.Cycles)
		}
	}
	// Locality-aware placement must cut the remote share, and with it the
	// cycle count must not regress past the naive policy.
	if remoteFraction(local.Stats) >= remoteFraction(naive.Stats) {
		t.Fatalf("local placement did not reduce the remote fraction: %f >= %f",
			remoteFraction(local.Stats), remoteFraction(naive.Stats))
	}
	if local.Stats.Cycles > naive.Stats.Cycles {
		t.Fatalf("local placement slower than naive: %d > %d", local.Stats.Cycles, naive.Stats.Cycles)
	}
}
