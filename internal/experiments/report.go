package experiments

import (
	"fmt"
	"io"

	"hwgc"
)

// WriteReport runs the complete evaluation — every table and figure of the
// paper plus the ablations and extensions — and writes a self-contained
// markdown report with measured values next to the paper's published
// numbers. `go run ./cmd/experiments -markdown all` regenerates the data
// behind EXPERIMENTS.md.
func WriteReport(w io.Writer, o Options) error {
	o = o.norm()
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}

	if err := p("# Measured evaluation report\n\nSeed %d, scale %d, deterministic.\n\n", o.Seed, o.Scale); err != nil {
		return err
	}

	// Figure 5.
	rows, err := Scaling(Benches(), hwgc.PaperCoreCounts, o)
	if err != nil {
		return err
	}
	if err := p("## Figure 5 — speedup vs. cores\n\n| Application | 1 | 2 | 4 | 8 | 16 |\n|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	var max8, max16 float64
	for _, r := range rows {
		if err := p("| %s | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
			r.Bench, r.Speedup[0], r.Speedup[1], r.Speedup[2], r.Speedup[3], r.Speedup[4]); err != nil {
			return err
		}
		if r.Speedup[3] > max8 {
			max8 = r.Speedup[3]
		}
		if r.Speedup[4] > max16 {
			max16 = r.Speedup[4]
		}
	}
	if err := p("\nMax %.2f at 8 cores / %.2f at 16 (paper: %.1f / %.1f).\n\n",
		max8, max16, PaperMaxSpeedup8, PaperMaxSpeedup16); err != nil {
		return err
	}

	// Figure 6.
	o6 := o
	o6.Base = Fig6Config()
	rows6, err := Scaling(Benches(), hwgc.PaperCoreCounts, o6)
	if err != nil {
		return err
	}
	if err := p("## Figure 6 — +20 cycles memory latency\n\n| Application | 16 cores (Fig. 6) | 16 cores (Fig. 5) |\n|---|---|---|\n"); err != nil {
		return err
	}
	for i, r := range rows6 {
		if err := p("| %s | %.2f | %.2f |\n", r.Bench, r.Speedup[4], rows[i].Speedup[4]); err != nil {
			return err
		}
	}
	if err := p("\n"); err != nil {
		return err
	}

	// Table I.
	emp, err := EmptyWorklist(Benches(), hwgc.PaperCoreCounts, o)
	if err != nil {
		return err
	}
	if err := p("## Table I — empty work-list cycles (measured %% | paper %%)\n\n| Application | 1 | 2 | 4 | 8 | 16 |\n|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, r := range emp {
		paper := PaperTable1[r.Bench]
		if err := p("| %s |", r.Bench); err != nil {
			return err
		}
		for i, f := range r.Fraction {
			if err := p(" %.2f \\| %.2f |", 100*f, paper[i]); err != nil {
				return err
			}
		}
		if err := p("\n"); err != nil {
			return err
		}
	}
	if err := p("\n"); err != nil {
		return err
	}

	// Table II.
	st, err := StallBreakdown(Benches(), 16, o)
	if err != nil {
		return err
	}
	if err := p("## Table II — stall breakdown at 16 cores (mean per core, %% of total; paper %% in brackets)\n\n" +
		"| Application | Total | Scan-lock | Free-lock | Header-lock | Body load | Header load |\n|---|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, r := range st {
		pp := PaperTable2[r.Bench]
		pct := func(v int64) float64 { return 100 * float64(v) / float64(r.Total) }
		ppct := func(v int64) float64 { return 100 * float64(v) / float64(pp.Total) }
		if err := p("| %s | %d | %.2f [%.2f] | %.2f [%.2f] | %.2f [%.2f] | %.2f [%.2f] | %.2f [%.2f] |\n",
			r.Bench, r.Total,
			pct(r.Mean.ScanLockStall), ppct(pp.ScanLock),
			pct(r.Mean.FreeLockStall), ppct(pp.FreeLock),
			pct(r.Mean.HeaderLockStall), ppct(pp.HeaderLock),
			pct(r.Mean.BodyLoadStall), ppct(pp.BodyLoad),
			pct(r.Mean.HeaderLoadStall), ppct(pp.HeaderLoad)); err != nil {
			return err
		}
	}
	if err := p("\n"); err != nil {
		return err
	}

	// Ablation A1.
	fifo, err := FIFOSweep("cup", []int{0, 16384, 32768, 65536}, 16, o)
	if err != nil {
		return err
	}
	if err := p("## A1 — header FIFO capacity (cup, 16 cores)\n\n| Capacity | Cycles | Scan-lock stall/core | Drops |\n|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, f := range fifo {
		cap := fmt.Sprint(f.Capacity)
		if f.Capacity == 0 {
			cap = "disabled"
		}
		if err := p("| %s | %d | %d | %d |\n", cap, f.Cycles, f.ScanLockStall, f.FIFODrops); err != nil {
			return err
		}
	}
	if err := p("\n"); err != nil {
		return err
	}

	// Extensions.
	stride, err := StrideSweep("blob", []int{0, 64}, []int{1, 16}, o)
	if err != nil {
		return err
	}
	if err := p("## E1 — stride work distribution (blob)\n\n16-core speedup: objects %.2f → 64-word strides %.2f.\n\n",
		stride[0].Speedup[1], stride[1].Speedup[1]); err != nil {
		return err
	}

	hc, err := HeaderCache([]string{"javac", "db"}, 4096, 16, o)
	if err != nil {
		return err
	}
	if err := p("## E2 — header cache (4096 lines, 16 cores)\n\n| Application | Gain | Hit rate |\n|---|---|---|\n"); err != nil {
		return err
	}
	for _, r := range hc {
		if err := p("| %s | %.2fx | %.1f%% |\n", r.Bench, float64(r.CyclesOff)/float64(r.CyclesOn), 100*r.HitRate); err != nil {
			return err
		}
	}
	if err := p("\n"); err != nil {
		return err
	}

	bar, err := Barriers([]string{"jlisp", "javac"}, 8, o)
	if err != nil {
		return err
	}
	if err := p("## E3/E4 — concurrent collection and write barriers (8 cores)\n\n" +
		"| Application | Barrier | STW pause | GC cycles | Worst mutator op | Barrier cycles | Floating words | Mark term. |\n|---|---|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, r := range bar {
		if err := p("| %s | %s | %d | %d | %d | %d | %d | %d |\n", r.Bench, r.Mode, r.STWPause, r.Cycles,
			r.MaxOpLatency, r.BarrierCycles, r.FloatingWords, r.MarkTermCycles); err != nil {
			return err
		}
	}
	return p("\nGenerated by `go run ./cmd/experiments -markdown all`.\n")
}
