package sweep

import (
	"hash/fnv"
	"maps"
	"testing"

	"hwgc"
)

// planPins plans a representative design-space sweep — canonicalization,
// cross-product expansion with a constraint, per-point canonical encoding
// and content addressing — without executing any point. It returns the two
// deterministic metrics BenchmarkSweepPlanner reports:
//
//   - plan-points: the planned point count. Any change to expansion,
//     constraint evaluation or default resolution that alters coverage
//     shifts this.
//   - plan-order-hash: an FNV-32a hash of the concatenated point keys in
//     plan order. The plan order is the contract the fleet relies on to
//     dedupe and aggregate across backends, so any reorder — a changed
//     axis sort, a different odometer direction, a canonicalization tweak
//     that shifts content keys — shifts it even when the count stays flat.
func planPins(tb testing.TB) map[string]int64 {
	lat := int64(1)
	space := &hwgc.SweepSpace{
		Benches: []string{"jlisp", "search", "db"},
		Scales:  []int{1, 2},
		Seeds:   []int64{1, 2},
		Axes: []hwgc.SweepAxis{
			{Field: "Cores", Values: []int64{1, 2, 4, 8, 16, 32}},
			{Field: "MemLatency", Values: []int64{10, 20, 40}},
			{Field: "MemBanks", Values: []int64{2, 4, 8}},
			// An enum axis, so the pinned plan covers string-valued
			// canonicalization (sorting, "none" normalization) too.
			{Field: "BarrierMode", Strings: []string{"none", "satb", "incupdate"}},
		},
		// The paper-style sanity constraints: enough banks to feed the
		// cores, and no single-bank many-core corners.
		Constraints: []hwgc.SweepConstraint{
			{A: "MemBanks", Op: ">=", B: "Cores"},
			{A: "MemLatency", Op: ">", Value: &lat},
		},
		Objective: hwgc.ObjectiveSpeedupPerCore,
	}
	pts, err := space.Points()
	if err != nil {
		tb.Fatal(err)
	}
	h := fnv.New32a()
	for _, p := range pts {
		_, _ = h.Write([]byte(p.Key))
	}
	return map[string]int64{"plan-points": int64(len(pts)), "plan-order-hash": int64(h.Sum32())}
}

// BenchmarkSweepPlanner measures the pure planning cost of planPins' sweep.
// TestPinsSweepPlanner holds its deterministic metrics.
func BenchmarkSweepPlanner(b *testing.B) {
	var m map[string]int64
	for i := 0; i < b.N; i++ {
		m = planPins(b)
	}
	for name, v := range m {
		b.ReportMetric(float64(v), name)
	}
}

// TestPinsSweepPlanner pins the BenchmarkSweepPlanner plan's size and order.
func TestPinsSweepPlanner(t *testing.T) {
	want := map[string]int64{"plan-points": 972, "plan-order-hash": 3859396101}
	if got := planPins(t); !maps.Equal(got, want) {
		t.Errorf("got %v, pinned %v", got, want)
	}
}
