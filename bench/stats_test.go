package main

import (
	"math"
	"slices"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	l := latencySet{ok: []float64{100, 1}}
	for i := 2; i < 100; i++ {
		l.ok = append(l.ok, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.001, 1}, {1, 100}} {
		if got, _ := l.percentile(c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got, _ := (latencySet{}).percentile(0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
}

// A percentile is reported only with at least ten samples beyond it: p90
// needs 100 samples, p99 needs 1000.
func TestResolvedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := resolved(c.n, c.q); got != c.want {
			t.Errorf("resolved(%d, %g) = %t, want %t", c.n, c.q, got, c.want)
		}
	}
}

// Failed and refused ops count against the error rate and as missing every
// latency percentile.
func TestFailedOpsMissLatency(t *testing.T) {
	tally := opTally{attempted: 100, failed: 5, refused: 2}
	if got := tally.errorRate(); got != 0.05 {
		t.Errorf("errorRate = %g, want 0.05", got)
	}
	if got := (opTally{}).errorRate(); got != 0 {
		t.Errorf("errorRate with nothing attempted = %g, want 0", got)
	}

	l := latencySet{ok: seq(95), failed: 5}
	if v, _ := l.percentile(0.5); v != 50 {
		t.Errorf("p50 = %g, want 50", v)
	}
	if v, ok := l.percentile(0.9); v != 90 || !ok {
		t.Errorf("p90 = %g (resolved %t), want 90, resolved", v, ok)
	}
	if v, _ := l.percentile(0.96); !math.IsInf(v, 1) {
		t.Errorf("p96 = %g, want +Inf: it lands on a failed op", v)
	}
	if v, ok := l.percentile(0.99); !math.IsInf(v, 1) || ok {
		t.Errorf("p99 = %g (resolved %t), want +Inf, unresolved", v, ok)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the noise check of a benchmark run uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should fail")
	}
	if got := relSpread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("relSpread(1..10) = %g, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{3, 1, 2, 4}
	if got := median(in); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if !slices.Equal(in, []float64{3, 1, 2, 4}) {
		t.Error("median reordered its input")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}

func TestBoundCheck(t *testing.T) {
	setup := bound{rel: 0.2, floor: 0.5}
	ops := bound{rel: 0.1, higherBetter: true}
	for _, c := range []struct {
		name               string
		b                  bound
		base, cand, spread float64
		want               string
	}{
		// The absolute floor dominates a small baseline.
		{"floor allows", setup, 1.0, 1.45, 0.1, verdictOK},
		{"floor exceeded", setup, 1.0, 1.55, 0.1, verdictRegressed},
		// The relative bound dominates a large one.
		{"relative allows", setup, 10, 11.9, 0.1, verdictOK},
		{"relative exceeded", setup, 10, 12.1, 0.1, verdictRegressed},
		{"improvement", setup, 10, 5, 0.1, verdictOK},
		// Spread wider than the bound: the metric cannot be judged.
		{"too noisy", setup, 10, 10, 2.5, verdictUnresolved},
		{"higher better allows", ops, 100, 91, 1, verdictOK},
		{"higher better exceeded", ops, 100, 89, 1, verdictRegressed},
		{"higher better improves", ops, 100, 150, 1, verdictOK},
		{"higher better too noisy", ops, 100, 100, 11, verdictUnresolved},
	} {
		if got := c.b.check(c.base, c.cand, c.spread); got != c.want {
			t.Errorf("%s: check(%g, %g, %g) = %s, want %s", c.name, c.base, c.cand, c.spread, got, c.want)
		}
	}
}

// The result line carries exactly the metrics BENCHMARK.json declares, for
// exactly the workloads it declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers, names []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEndMetrics)
	}
	if !slices.Equal(layers, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layers, perLayerMetrics)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
}
