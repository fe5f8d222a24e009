package hwgc

import (
	"bytes"
	"strings"
	"testing"
)

func int64p(v int64) *int64 { return &v }

func TestSweepSpaceCanonicalizeDefaults(t *testing.T) {
	s := SweepSpace{Benches: []string{"jlisp"}}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.V != SweepSpaceVersion {
		t.Fatalf("V = %d, want %d", s.V, SweepSpaceVersion)
	}
	if len(s.Scales) != 1 || s.Scales[0] != 1 {
		t.Fatalf("Scales = %v, want [1]", s.Scales)
	}
	if len(s.Seeds) != 1 || s.Seeds[0] != DefaultSeed {
		t.Fatalf("Seeds = %v, want [%d]", s.Seeds, DefaultSeed)
	}
	if s.MaxPoints != MaxSweepSpacePoints {
		t.Fatalf("MaxPoints = %d, want %d", s.MaxPoints, MaxSweepSpacePoints)
	}
	if s.Objective != ObjectiveSpeedupPerCore {
		t.Fatalf("Objective = %q", s.Objective)
	}
	if s.TopK != 16 {
		t.Fatalf("TopK = %d, want 16", s.TopK)
	}
	if s.Base.Cores != 1 {
		t.Fatalf("Base.Cores = %d, want defaulted 1", s.Base.Cores)
	}
}

// Two spellings of the same exploration — unsorted, duplicated lists, zero
// seeds, implicit defaults — must share one canonical encoding and key.
func TestSweepSpaceCanonicalizationIsSpellingInvariant(t *testing.T) {
	a := SweepSpace{
		Benches: []string{"javac", "jlisp", "javac"},
		Scales:  []int{2, 1, 2},
		Seeds:   []int64{0, 7},
		Axes: []SweepAxis{
			{Field: "MemLatency", Values: []int64{20, 10, 20}},
			{Field: "Cores", Values: []int64{4, 1}},
		},
		Constraints: []SweepConstraint{
			{A: "MemLatency", Op: ">=", Value: int64p(10)},
			{A: "Cores", Op: "<=", Value: int64p(4)},
		},
	}
	b := SweepSpace{
		V:       1,
		Benches: []string{"jlisp", "javac"},
		Scales:  []int{1, 2},
		Seeds:   []int64{7, DefaultSeed},
		Axes: []SweepAxis{
			{Field: "Cores", Values: []int64{1, 4}},
			{Field: "MemLatency", Values: []int64{10, 20}},
		},
		Constraints: []SweepConstraint{
			{A: "Cores", Op: "<=", Value: int64p(4)},
			{A: "MemLatency", Op: ">=", Value: int64p(10)},
		},
		MaxPoints: MaxSweepSpacePoints,
		Objective: ObjectiveSpeedupPerCore,
		TopK:      16,
	}
	aj, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", aj, bj)
	}
	ak, _ := a.Key()
	bk, _ := b.Key()
	if ak != bk || len(ak) != 64 {
		t.Fatalf("keys differ or malformed: %q vs %q", ak, bk)
	}
}

func TestSweepSpacePointsDeterministicOrder(t *testing.T) {
	mk := func() *SweepSpace {
		return &SweepSpace{
			Benches: []string{"jlisp", "compress"},
			Seeds:   []int64{1, 2},
			Axes: []SweepAxis{
				{Field: "Cores", Values: []int64{1, 2, 4}},
				{Field: "MemLatency", Values: []int64{10, 40}},
			},
		}
	}
	p1, err := mk().Points()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := mk().Points()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 3 * 2
	if len(p1) != want || len(p2) != want {
		t.Fatalf("point counts %d/%d, want %d", len(p1), len(p2), want)
	}
	seen := map[string]bool{}
	for i := range p1 {
		if p1[i].Key != p2[i].Key || !bytes.Equal(p1[i].Canonical, p2[i].Canonical) {
			t.Fatalf("point %d differs across expansions", i)
		}
		if p1[i].Index != i {
			t.Fatalf("point %d has Index %d", i, p1[i].Index)
		}
		if seen[p1[i].Key] {
			t.Fatalf("duplicate point key %s", p1[i].Key)
		}
		seen[p1[i].Key] = true
	}
	// Canonical order: benches sorted, so compress before jlisp; within a
	// bench, seeds ascend; within a seed, axes ascend with Cores (sorted
	// first alphabetically) outermost.
	if p1[0].Req.Bench != "compress" || p1[0].Req.Seed != 1 || p1[0].Req.Config.Cores != 1 {
		t.Fatalf("first point out of canonical order: %+v", p1[0].Req)
	}
	if p1[1].Req.Config.MemLatency != 40 {
		t.Fatalf("second point should step the innermost axis, got MemLatency %d", p1[1].Req.Config.MemLatency)
	}
}

// A zero axis value resolves to the field's library default, which can
// collide with an explicitly spelled default; the expansion must dedupe
// such points by content key.
func TestSweepSpacePointsDedupeDefaultCollision(t *testing.T) {
	s := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "FIFOCapacity", Values: []int64{0, 32768, 1024}}},
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("planned %d points, want 2 (0 and 32768 canonicalize identically)", len(pts))
	}
}

// Enum axes canonicalize like integer axes: values sorted, duplicates
// removed, the empty spelling normalized to "none", and two spellings of the
// same exploration share one key.
func TestSweepSpaceEnumAxisCanonicalization(t *testing.T) {
	a := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "BarrierMode", Strings: []string{"satb", "", "incupdate", "satb"}}},
	}
	b := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "BarrierMode", Strings: []string{"incupdate", "none", "satb"}}},
	}
	aj, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", aj, bj)
	}
	want := []string{"incupdate", "none", "satb"}
	if len(a.Axes[0].Strings) != len(want) {
		t.Fatalf("Strings = %v, want %v", a.Axes[0].Strings, want)
	}
	for i, v := range want {
		if a.Axes[0].Strings[i] != v {
			t.Fatalf("Strings = %v, want %v", a.Axes[0].Strings, want)
		}
	}
}

// An enum axis crossed with integer axes expands deterministically, stepping
// its canonical (sorted) value order, and the "none" value canonicalizes to
// the same point as a base config that never mentions BarrierMode.
func TestSweepSpaceEnumAxisPoints(t *testing.T) {
	s := SweepSpace{
		Benches: []string{"jlisp"},
		Base:    Config{MutatorOps: 4096},
		Axes: []SweepAxis{
			{Field: "BarrierMode", Strings: []string{"none", "satb", "incupdate"}},
			{Field: "Cores", Values: []int64{1, 4}},
		},
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("planned %d points, want 6", len(pts))
	}
	// Axes sort alphabetically: BarrierMode outermost, Cores innermost.
	wantModes := []BarrierMode{
		BarrierIncUpdate, BarrierIncUpdate, BarrierNone, BarrierNone, BarrierSATB, BarrierSATB,
	}
	for i, p := range pts {
		if p.Req.Config.BarrierMode != wantModes[i] {
			t.Fatalf("point %d BarrierMode = %q, want %q", i, p.Req.Config.BarrierMode, wantModes[i])
		}
		if p.Req.Config.MutatorOps != 4096 {
			t.Fatalf("point %d lost Base.MutatorOps", i)
		}
	}
	// The "none" points must share keys with a space that leaves BarrierMode
	// at its default entirely.
	base := SweepSpace{
		Benches: []string{"jlisp"},
		Base:    Config{MutatorOps: 4096},
		Axes:    []SweepAxis{{Field: "Cores", Values: []int64{1, 4}}},
	}
	bpts, err := base.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[2].Key != bpts[0].Key || pts[3].Key != bpts[1].Key {
		t.Fatal(`"none" axis points do not collide with the implicit default`)
	}
}

func TestSweepSpaceEnumAxisRejections(t *testing.T) {
	cases := []struct {
		name string
		s    SweepSpace
	}{
		{"enum field with Values", SweepSpace{Benches: []string{"jlisp"},
			Axes: []SweepAxis{{Field: "BarrierMode", Values: []int64{1}}}}},
		{"enum field with both lists", SweepSpace{Benches: []string{"jlisp"},
			Axes: []SweepAxis{{Field: "BarrierMode", Strings: []string{"satb"}, Values: []int64{1}}}}},
		{"enum field empty", SweepSpace{Benches: []string{"jlisp"},
			Axes: []SweepAxis{{Field: "BarrierMode"}}}},
		{"invalid enum value", SweepSpace{Benches: []string{"jlisp"},
			Axes: []SweepAxis{{Field: "BarrierMode", Strings: []string{"cardtable"}}}}},
		{"int field with Strings", SweepSpace{Benches: []string{"jlisp"},
			Axes: []SweepAxis{{Field: "Cores", Values: []int64{1}, Strings: []string{"satb"}}}}},
		{"enum field in constraint", SweepSpace{Benches: []string{"jlisp"},
			Constraints: []SweepConstraint{{A: "BarrierMode", Op: "==", Value: int64p(1)}}}},
		{"duplicate enum axis", SweepSpace{Benches: []string{"jlisp"}, Axes: []SweepAxis{
			{Field: "BarrierMode", Strings: []string{"satb"}},
			{Field: "BarrierMode", Strings: []string{"none"}}}}},
	}
	for _, tc := range cases {
		if err := tc.s.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize accepted", tc.name)
		}
	}
}

func TestSweepSpaceConstraints(t *testing.T) {
	s := SweepSpace{
		Benches: []string{"jlisp"},
		Axes: []SweepAxis{
			{Field: "Cores", Values: []int64{1, 2, 4, 8}},
			{Field: "MemBanks", Values: []int64{1, 2, 4, 8}},
		},
		// Field-vs-field and field-vs-literal constraints together: at
		// least one bank per core, at most 4 cores.
		Constraints: []SweepConstraint{
			{A: "MemBanks", Op: ">=", B: "Cores"},
			{A: "Cores", Op: "<=", Value: int64p(4)},
		},
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range []int{1, 2, 4} {
		for _, m := range []int{1, 2, 4, 8} {
			if m >= c {
				want++
			}
		}
	}
	if len(pts) != want {
		t.Fatalf("planned %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Req.Config.MemBanks < p.Req.Config.Cores || p.Req.Config.Cores > 4 {
			t.Fatalf("constraint violated at point %+v", p.Req.Config)
		}
	}
}

func TestSweepSpaceRejections(t *testing.T) {
	cases := []struct {
		name string
		s    SweepSpace
	}{
		{"no benches", SweepSpace{}},
		{"unknown bench", SweepSpace{Benches: []string{"nope"}}},
		{"bad version", SweepSpace{V: 2, Benches: []string{"jlisp"}}},
		{"bad scale", SweepSpace{Benches: []string{"jlisp"}, Scales: []int{0}}},
		{"unknown axis field", SweepSpace{Benches: []string{"jlisp"}, Axes: []SweepAxis{{Field: "Bogus", Values: []int64{1}}}}},
		{"empty axis", SweepSpace{Benches: []string{"jlisp"}, Axes: []SweepAxis{{Field: "Cores"}}}},
		{"duplicate axis", SweepSpace{Benches: []string{"jlisp"}, Axes: []SweepAxis{
			{Field: "Cores", Values: []int64{1}}, {Field: "Cores", Values: []int64{2}}}}},
		{"invalid axis value", SweepSpace{Benches: []string{"jlisp"}, Axes: []SweepAxis{{Field: "Cores", Values: []int64{999}}}}},
		{"bad op", SweepSpace{Benches: []string{"jlisp"}, Constraints: []SweepConstraint{{A: "Cores", Op: "~", Value: int64p(1)}}}},
		{"both B and Value", SweepSpace{Benches: []string{"jlisp"}, Constraints: []SweepConstraint{{A: "Cores", Op: "<", B: "MemBanks", Value: int64p(1)}}}},
		{"neither B nor Value", SweepSpace{Benches: []string{"jlisp"}, Constraints: []SweepConstraint{{A: "Cores", Op: "<"}}}},
		{"unknown constraint field", SweepSpace{Benches: []string{"jlisp"}, Constraints: []SweepConstraint{{A: "Nope", Op: "<", Value: int64p(1)}}}},
		{"negative MaxPoints", SweepSpace{Benches: []string{"jlisp"}, MaxPoints: -1}},
		{"MaxPoints over cap", SweepSpace{Benches: []string{"jlisp"}, MaxPoints: MaxSweepSpacePoints + 1}},
		{"bad objective", SweepSpace{Benches: []string{"jlisp"}, Objective: "fastest"}},
		{"TopK over cap", SweepSpace{Benches: []string{"jlisp"}, TopK: MaxSweepFrontier + 1}},
		{"unsatisfiable constraints", SweepSpace{Benches: []string{"jlisp"}, Constraints: []SweepConstraint{{A: "Cores", Op: ">", Value: int64p(64)}}}},
		{"over point cap", SweepSpace{Benches: []string{"jlisp"}, MaxPoints: 2,
			Axes: []SweepAxis{{Field: "Cores", Values: []int64{1, 2, 4}}}}},
	}
	for _, tc := range cases {
		if err := tc.s.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize accepted", tc.name)
		}
	}
}

func TestSweepSpaceProductCap(t *testing.T) {
	// Blow the 2^20 pre-constraint product cap with wide value axes; the
	// rejection must come from the product bound, before any expansion.
	vals := make([]int64, 128)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	s := SweepSpace{
		Benches: []string{"jlisp"},
		Axes: []SweepAxis{
			{Field: "MemLatency", Values: vals},
			{Field: "MemBandwidth", Values: vals},
			{Field: "MemBanks", Values: vals},
		},
	}
	err := s.Canonicalize()
	if err == nil || !strings.Contains(err.Error(), "cross product") {
		t.Fatalf("err = %v, want cross-product cap rejection", err)
	}
}

func TestDecodeSweepSpaceStrict(t *testing.T) {
	good := `{"Benches":["jlisp"],"Axes":[{"Field":"Cores","Values":[1,2]}]}`
	s, err := DecodeSweepSpace(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.PointCount(); err != nil || n != 2 {
		t.Fatalf("points = %d err = %v, want 2", n, err)
	}
	for _, bad := range []string{
		`{"Benches":["jlisp"],"Bogus":1}`, // unknown field
		`{"Benches":["jlisp"]} trailing`,  // trailing data
		`{"Benches":[]}`,                  // fails canonicalization
		`{`,
	} {
		if _, err := DecodeSweepSpace(strings.NewReader(bad)); err == nil {
			t.Errorf("DecodeSweepSpace accepted %q", bad)
		}
	}
}

// Canonicalization must be idempotent: re-canonicalizing canonical bytes is
// a fixed point. The fuzz target leans on this same invariant.
func TestSweepSpaceCanonicalIdempotent(t *testing.T) {
	s := SweepSpace{
		Benches: []string{"db", "jlisp"},
		Seeds:   []int64{3, 0},
		Axes:    []SweepAxis{{Field: "Cores", Values: []int64{4, 1}}},
	}
	first, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeSweepSpace(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("canonicalization not idempotent:\n%s\n%s", first, second)
	}
}

// The NUMAPlacement axis canonicalizes its empty spelling to "naive" and a
// "naive" point collides with a base config that never mentions placement;
// a zero NUMADomains axis value collides with the flat machine.
func TestSweepSpaceNUMAAxes(t *testing.T) {
	s := SweepSpace{
		Benches: []string{"jlisp"},
		Base:    Config{NUMADomains: 4},
		Axes:    []SweepAxis{{Field: "NUMAPlacement", Strings: []string{"local", "", "naive"}}},
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Axes[0].Strings; len(got) != 2 || got[0] != "local" || got[1] != "naive" {
		t.Fatalf("Strings = %v, want [local naive]", got)
	}
	if len(pts) != 2 {
		t.Fatalf("planned %d points, want 2", len(pts))
	}
	if pts[0].Req.Config.NUMAPlacement != PlacementLocal ||
		pts[1].Req.Config.NUMAPlacement != PlacementNaive {
		t.Fatalf("placement order: %q, %q", pts[0].Req.Config.NUMAPlacement, pts[1].Req.Config.NUMAPlacement)
	}
	base := SweepSpace{Benches: []string{"jlisp"}, Base: Config{NUMADomains: 4}}
	bpts, err := base.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Key != bpts[0].Key {
		t.Fatal(`"naive" axis point does not collide with the implicit default`)
	}

	// A domain-count axis spans the flat machine (0) and NUMA machines; the
	// zero point must share its key with a space that never mentions NUMA.
	d := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "NUMADomains", Values: []int64{0, 2, 4}}},
	}
	dpts, err := d.Points()
	if err != nil {
		t.Fatal(err)
	}
	flat := SweepSpace{Benches: []string{"jlisp"}}
	fpts, err := flat.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(dpts) != 3 || dpts[0].Key != fpts[0].Key {
		t.Fatal("zero-domain axis point does not collide with the flat machine")
	}
	// Placement without domains is a dead knob: the axis collapses to one
	// canonical (flat) point.
	dead := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "NUMAPlacement", Strings: []string{"local", "naive"}}},
	}
	deadPts, err := dead.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(deadPts) != 1 || deadPts[0].Key != fpts[0].Key {
		t.Fatalf("dead placement knob planned %d points, want 1 flat point", len(deadPts))
	}
}

// Cache axes validate and canonicalize: a zero L1Sets value is the flat
// machine, and the dependent knobs (ways, MSHRs, line words) are dead
// without it.
func TestSweepSpaceCacheAxes(t *testing.T) {
	s := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "L1Sets", Values: []int64{0, 16, 64}}},
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("planned %d points, want 3", len(pts))
	}
	flat := SweepSpace{Benches: []string{"jlisp"}}
	fpts, err := flat.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Key != fpts[0].Key {
		t.Fatal("zero-L1Sets point does not collide with the flat machine")
	}
	dead := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "MSHRs", Values: []int64{2, 8}}},
	}
	deadPts, err := dead.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(deadPts) != 1 || deadPts[0].Key != fpts[0].Key {
		t.Fatalf("dead MSHR knob planned %d points, want 1 flat point", len(deadPts))
	}
	// A negative gate value normalizes to "model off", like MutatorOps.
	neg := SweepSpace{
		Benches: []string{"jlisp"},
		Axes:    []SweepAxis{{Field: "L1Sets", Values: []int64{-1}}},
	}
	negPts, err := neg.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(negPts) != 1 || negPts[0].Key != fpts[0].Key {
		t.Fatal("negative L1Sets did not normalize to the flat machine")
	}
}
