package hwgc

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hwgc/internal/plan"
)

// This file defines SweepSpace, the versioned parameter-space specification
// behind the gcsweep exploration engine (POST /v1/sweeps). A space is a
// cross product of axes — benchmarks, scales, seeds and any integer Config
// field — filtered by optional constraints and bounded by a point cap. Like
// CollectRequest, a space canonicalizes to deterministic bytes, so two
// spellings of the same design question share one content key (the sweep
// ID), and its expansion order is fixed, so every planner derives the same
// point list in the same order.

// SweepSpaceVersion is the current (and only) SweepSpace spec version.
const SweepSpaceVersion = 1

// MaxSweepSpacePoints bounds how many points one space may plan after
// constraint filtering. It is also the default MaxPoints.
const MaxSweepSpacePoints = 4096

// maxSweepSpaceProduct bounds the raw cross product before constraint
// filtering, so a hostile spec cannot make canonicalization itself
// expensive: expansion iterates the product even when constraints would
// filter almost everything out.
const maxSweepSpaceProduct = 1 << 20

// MaxSweepFrontier bounds (and defaults, at 16) the ranked-frontier size a
// space may request.
const MaxSweepFrontier = 64

// Frontier objectives. All are computed per completed point from its
// RunResult; the speedup objectives additionally group points that differ
// only in Cores and use the group's smallest completed core count as the
// baseline (which is an exact T(1) baseline whenever the space includes a
// single-core point).
const (
	// ObjectiveSpeedupPerCore ranks by speedup over the group baseline
	// divided by the core ratio — the paper's efficiency question "how much
	// of the added silicon turns into collection speed".
	ObjectiveSpeedupPerCore = "speedup-per-core"
	// ObjectiveSpeedup ranks by raw speedup over the group baseline
	// (Figure 5's y-axis).
	ObjectiveSpeedup = "speedup"
	// ObjectiveMinCycles ranks by fewest collection clock cycles.
	ObjectiveMinCycles = "min-cycles"
	// ObjectiveWordsPerCycle ranks by live words evacuated per clock cycle
	// (throughput, normalized by heap size so mixed-benchmark spaces rank
	// sensibly).
	ObjectiveWordsPerCycle = "words-per-cycle"
)

// SweepObjectives lists every valid Objective value.
var SweepObjectives = []string{
	ObjectiveSpeedupPerCore, ObjectiveSpeedup, ObjectiveMinCycles, ObjectiveWordsPerCycle,
}

// SweepAxis varies one Config field over an explicit value list. Integer
// fields list their values in Values (canonicalized sorted ascending,
// duplicates removed; a zero value selects the field's library default
// exactly as it does on a single CollectRequest). Enum-valued string fields
// (BarrierMode, NUMAPlacement) list theirs in Strings (canonicalized sorted,
// deduplicated, with "" spelled by the zero value's canonical name — "none"
// for BarrierMode, "naive" for NUMAPlacement); exactly one of the two lists
// must be set.
type SweepAxis struct {
	Field   string
	Values  []int64  `json:",omitempty"`
	Strings []string `json:",omitempty"`
}

// SweepConstraint filters the cross product: a point survives when its
// canonicalized Config satisfies "A Op B" (field against field) or
// "A Op Value" (field against a literal). Exactly one of B and Value must
// be set.
type SweepConstraint struct {
	A     string
	Op    string // one of < <= == != >= >
	B     string `json:",omitempty"`
	Value *int64 `json:",omitempty"`
}

// SweepSpace is the versioned sweep specification. Benches is required;
// empty Scales and Seeds default to {1} and {DefaultSeed}. Base is the
// configuration every point starts from before its axis values are applied.
type SweepSpace struct {
	V           int
	Benches     []string
	Scales      []int   `json:",omitempty"`
	Seeds       []int64 `json:",omitempty"`
	Base        Config
	Axes        []SweepAxis       `json:",omitempty"`
	Constraints []SweepConstraint `json:",omitempty"`
	// MaxPoints caps the planned (post-constraint) point count; 0 selects
	// MaxSweepSpacePoints, which is also the hard upper bound.
	MaxPoints int `json:",omitempty"`
	// Objective names the frontier ranking; empty selects speedup-per-core.
	Objective string
	// TopK is the ranked-frontier size; 0 selects 16, MaxSweepFrontier is
	// the bound.
	TopK   int
	Verify bool `json:",omitempty"`
}

// SweepPoint is one planned point of an expanded space: a canonical
// CollectRequest plus its content key (which is also its job ID and cache
// key, fleet-wide).
type SweepPoint struct {
	Index     int
	Key       string
	Canonical []byte
	Req       CollectRequest
}

// axisField binds a sweepable Config field name to its accessor pair.
type axisField struct {
	name string
	get  func(*Config) int64
	set  func(*Config, int64)
}

// sweepAxisFields lists every sweepable Config field in canonical order.
// Boolean fields (DisableFIFO, OptUnlockedMarkRead, Verify) belong in Base,
// not on an axis: a two-valued bool axis is just two spaces.
var sweepAxisFields = []axisField{
	{"CacheLineWords", func(c *Config) int64 { return int64(c.CacheLineWords) }, func(c *Config, v int64) { c.CacheLineWords = int(v) }},
	{"Cores", func(c *Config) int64 { return int64(c.Cores) }, func(c *Config, v int64) { c.Cores = int(v) }},
	{"ExtraMemLatency", func(c *Config) int64 { return int64(c.ExtraMemLatency) }, func(c *Config, v int64) { c.ExtraMemLatency = int(v) }},
	{"FIFOCapacity", func(c *Config) int64 { return int64(c.FIFOCapacity) }, func(c *Config, v int64) { c.FIFOCapacity = int(v) }},
	{"HeaderCacheLines", func(c *Config) int64 { return int64(c.HeaderCacheLines) }, func(c *Config, v int64) { c.HeaderCacheLines = int(v) }},
	{"L1Sets", func(c *Config) int64 { return int64(c.L1Sets) }, func(c *Config, v int64) { c.L1Sets = int(v) }},
	{"L1Ways", func(c *Config) int64 { return int64(c.L1Ways) }, func(c *Config, v int64) { c.L1Ways = int(v) }},
	{"L2Sets", func(c *Config) int64 { return int64(c.L2Sets) }, func(c *Config, v int64) { c.L2Sets = int(v) }},
	{"L2Ways", func(c *Config) int64 { return int64(c.L2Ways) }, func(c *Config, v int64) { c.L2Ways = int(v) }},
	{"MSHRs", func(c *Config) int64 { return int64(c.MSHRs) }, func(c *Config, v int64) { c.MSHRs = int(v) }},
	{"MemBandwidth", func(c *Config) int64 { return int64(c.MemBandwidth) }, func(c *Config, v int64) { c.MemBandwidth = int(v) }},
	{"MemBankBusy", func(c *Config) int64 { return int64(c.MemBankBusy) }, func(c *Config, v int64) { c.MemBankBusy = int(v) }},
	{"MemBanks", func(c *Config) int64 { return int64(c.MemBanks) }, func(c *Config, v int64) { c.MemBanks = int(v) }},
	{"MemLatency", func(c *Config) int64 { return int64(c.MemLatency) }, func(c *Config, v int64) { c.MemLatency = int(v) }},
	{"MemStoreQueueDepth", func(c *Config) int64 { return int64(c.MemStoreQueueDepth) }, func(c *Config, v int64) { c.MemStoreQueueDepth = int(v) }},
	{"MutatorAllocs", func(c *Config) int64 { return c.MutatorAllocs }, func(c *Config, v int64) { c.MutatorAllocs = v }},
	{"MutatorOps", func(c *Config) int64 { return c.MutatorOps }, func(c *Config, v int64) { c.MutatorOps = v }},
	{"MutatorPeriod", func(c *Config) int64 { return int64(c.MutatorPeriod) }, func(c *Config, v int64) { c.MutatorPeriod = int(v) }},
	{"MutatorSeed", func(c *Config) int64 { return c.MutatorSeed }, func(c *Config, v int64) { c.MutatorSeed = v }},
	{"NUMABandwidth", func(c *Config) int64 { return int64(c.NUMABandwidth) }, func(c *Config, v int64) { c.NUMABandwidth = int(v) }},
	{"NUMADomains", func(c *Config) int64 { return int64(c.NUMADomains) }, func(c *Config, v int64) { c.NUMADomains = int(v) }},
	{"NUMAInterleave", func(c *Config) int64 { return int64(c.NUMAInterleave) }, func(c *Config, v int64) { c.NUMAInterleave = int(v) }},
	{"NUMARemotePenalty", func(c *Config) int64 { return int64(c.NUMARemotePenalty) }, func(c *Config, v int64) { c.NUMARemotePenalty = int(v) }},
	{"ShutdownCycles", func(c *Config) int64 { return c.ShutdownCycles }, func(c *Config, v int64) { c.ShutdownCycles = v }},
	{"StartupCycles", func(c *Config) int64 { return c.StartupCycles }, func(c *Config, v int64) { c.StartupCycles = v }},
	{"StrideWords", func(c *Config) int64 { return int64(c.StrideWords) }, func(c *Config, v int64) { c.StrideWords = int(v) }},
}

func axisFieldByName(name string) (axisField, bool) {
	for _, f := range sweepAxisFields {
		if f.name == name {
			return f, true
		}
	}
	return axisField{}, false
}

// enumAxisField binds an enum-valued (string) Config field to its accessor
// pair and the canonical spellings of its values. The getter and setter
// translate the empty in-struct value to/from its canonical spelling (empty)
// so the axis value list never contains "".
type enumAxisField struct {
	name   string
	get    func(*Config) string
	set    func(*Config, string)
	values []string // canonical spellings, sorted
	empty  string   // canonical spelling of the zero value
}

// sweepEnumAxisFields lists every sweepable enum-valued Config field in
// canonical order.
var sweepEnumAxisFields = []enumAxisField{
	{
		name: "BarrierMode",
		get: func(c *Config) string {
			if c.BarrierMode == BarrierNone {
				return "none"
			}
			return string(c.BarrierMode)
		},
		set: func(c *Config, v string) {
			if v == "none" {
				c.BarrierMode = BarrierNone
				return
			}
			c.BarrierMode = BarrierMode(v)
		},
		values: []string{"incupdate", "none", "satb"},
		empty:  "none",
	},
	{
		name: "NUMAPlacement",
		get: func(c *Config) string {
			if c.NUMAPlacement == PlacementNaive {
				return "naive"
			}
			return string(c.NUMAPlacement)
		},
		set: func(c *Config, v string) {
			if v == "naive" {
				c.NUMAPlacement = PlacementNaive
				return
			}
			c.NUMAPlacement = NUMAPlacement(v)
		},
		values: []string{"local", "naive"},
		empty:  "naive",
	},
}

func enumAxisFieldByName(name string) (enumAxisField, bool) {
	for _, f := range sweepEnumAxisFields {
		if f.name == name {
			return f, true
		}
	}
	return enumAxisField{}, false
}

// SweepAxisFields lists the integer Config fields a SweepAxis or
// SweepConstraint may name, in canonical order.
func SweepAxisFields() []string {
	out := make([]string, len(sweepAxisFields))
	for i, f := range sweepAxisFields {
		out[i] = f.name
	}
	return out
}

// SweepEnumAxisFields lists the enum-valued Config fields a SweepAxis may
// name (constraints stay integer-only), in canonical order.
func SweepEnumAxisFields() []string {
	out := make([]string, len(sweepEnumAxisFields))
	for i, f := range sweepEnumAxisFields {
		out[i] = f.name
	}
	return out
}

var sweepConstraintOps = map[string]func(a, b int64) bool{
	"<":  func(a, b int64) bool { return a < b },
	"<=": func(a, b int64) bool { return a <= b },
	"==": func(a, b int64) bool { return a == b },
	"!=": func(a, b int64) bool { return a != b },
	">=": func(a, b int64) bool { return a >= b },
	">":  func(a, b int64) bool { return a > b },
}

// Canonicalize validates s and resolves every defaulted field in place:
// axis and scalar lists are sorted and deduplicated, constraints are
// ordered canonically, Base gets its defaults, and the point cap is
// enforced against the actual post-constraint point count. Two spaces that
// mean the same exploration serialize identically afterwards.
func (s *SweepSpace) Canonicalize() error {
	switch s.V {
	case 0:
		s.V = SweepSpaceVersion
	case SweepSpaceVersion:
	default:
		return fmt.Errorf("hwgc: unsupported SweepSpace version %d (want %d)", s.V, SweepSpaceVersion)
	}
	if len(s.Benches) == 0 {
		return fmt.Errorf("hwgc: sweep space needs at least one benchmark")
	}
	for _, b := range s.Benches {
		if _, err := Workload(b); err != nil {
			return err
		}
	}
	s.Benches = dedupeStrings(s.Benches)
	if len(s.Scales) == 0 {
		s.Scales = []int{1}
	}
	for _, sc := range s.Scales {
		if sc < 1 {
			return fmt.Errorf("hwgc: sweep space scale %d: must be >= 1", sc)
		}
	}
	s.Scales = dedupeInts(s.Scales)
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{DefaultSeed}
	}
	for i, sd := range s.Seeds {
		if sd == 0 {
			s.Seeds[i] = DefaultSeed
		}
	}
	s.Seeds = dedupeInt64s(s.Seeds)
	s.Base = s.Base.WithDefaults()
	if err := s.Base.Validate(); err != nil {
		return err
	}
	seenAxis := map[string]bool{}
	for i := range s.Axes {
		ax := &s.Axes[i]
		f, intField := axisFieldByName(ax.Field)
		ef, enumField := enumAxisFieldByName(ax.Field)
		if !intField && !enumField {
			return fmt.Errorf("hwgc: sweep axis %q: unknown Config field (valid: %v + %v)",
				ax.Field, SweepAxisFields(), SweepEnumAxisFields())
		}
		if seenAxis[ax.Field] {
			return fmt.Errorf("hwgc: duplicate sweep axis %q", ax.Field)
		}
		seenAxis[ax.Field] = true
		switch {
		case enumField:
			if len(ax.Strings) == 0 {
				return fmt.Errorf("hwgc: sweep axis %q lists no values (enum field, use Strings)", ax.Field)
			}
			if len(ax.Values) != 0 {
				return fmt.Errorf("hwgc: sweep axis %q: enum field takes Strings, not Values", ax.Field)
			}
			// Normalize the empty spelling, then validate each value by
			// single substitution, exactly like the integer path.
			for j, v := range ax.Strings {
				if v == "" {
					ax.Strings[j] = ef.empty
					v = ef.empty
				}
				probe := s.Base
				ef.set(&probe, v)
				probe = probe.WithDefaults()
				if err := probe.Validate(); err != nil {
					return fmt.Errorf("hwgc: sweep axis %q value %q: %w", ax.Field, v, err)
				}
			}
			ax.Strings = dedupeStrings(ax.Strings)
		default:
			if len(ax.Values) == 0 {
				return fmt.Errorf("hwgc: sweep axis %q lists no values", ax.Field)
			}
			if len(ax.Strings) != 0 {
				return fmt.Errorf("hwgc: sweep axis %q: integer field takes Values, not Strings", ax.Field)
			}
			// Every value must yield a valid config when applied alone: Config
			// validation is per-field, so single-substitution checking is exact
			// and catches a bad value before the cross product multiplies it.
			for _, v := range ax.Values {
				probe := s.Base
				f.set(&probe, v)
				probe = probe.WithDefaults()
				if err := probe.Validate(); err != nil {
					return fmt.Errorf("hwgc: sweep axis %q value %d: %w", ax.Field, v, err)
				}
			}
			ax.Values = dedupeInt64s(ax.Values)
		}
	}
	sort.Slice(s.Axes, func(i, j int) bool { return s.Axes[i].Field < s.Axes[j].Field })
	for i := range s.Constraints {
		c := &s.Constraints[i]
		if _, ok := sweepConstraintOps[c.Op]; !ok {
			return fmt.Errorf("hwgc: sweep constraint op %q: want one of < <= == != >= >", c.Op)
		}
		if _, ok := axisFieldByName(c.A); !ok {
			return fmt.Errorf("hwgc: sweep constraint field %q: unknown Config field", c.A)
		}
		if (c.B == "") == (c.Value == nil) {
			return fmt.Errorf("hwgc: sweep constraint on %q: exactly one of B and Value must be set", c.A)
		}
		if c.B != "" {
			if _, ok := axisFieldByName(c.B); !ok {
				return fmt.Errorf("hwgc: sweep constraint field %q: unknown Config field", c.B)
			}
		}
	}
	sort.SliceStable(s.Constraints, func(i, j int) bool { return constraintLess(s.Constraints[i], s.Constraints[j]) })
	s.Constraints = dedupeConstraints(s.Constraints)
	if s.MaxPoints < 0 || s.MaxPoints > MaxSweepSpacePoints {
		return fmt.Errorf("hwgc: sweep space MaxPoints %d: must be in [0,%d]", s.MaxPoints, MaxSweepSpacePoints)
	}
	if s.MaxPoints == 0 {
		s.MaxPoints = MaxSweepSpacePoints
	}
	if s.Objective == "" {
		s.Objective = ObjectiveSpeedupPerCore
	}
	if !validObjective(s.Objective) {
		return fmt.Errorf("hwgc: sweep objective %q: want one of %v", s.Objective, SweepObjectives)
	}
	if s.TopK < 0 || s.TopK > MaxSweepFrontier {
		return fmt.Errorf("hwgc: sweep space TopK %d: must be in [0,%d]", s.TopK, MaxSweepFrontier)
	}
	if s.TopK == 0 {
		s.TopK = 16
	}
	product := int64(len(s.Benches)) * int64(len(s.Scales)) * int64(len(s.Seeds))
	for _, ax := range s.Axes {
		product *= int64(len(ax.Values) + len(ax.Strings))
		if product > maxSweepSpaceProduct {
			return fmt.Errorf("hwgc: sweep space cross product exceeds %d combinations", maxSweepSpaceProduct)
		}
	}
	if product > maxSweepSpaceProduct {
		return fmt.Errorf("hwgc: sweep space cross product exceeds %d combinations", maxSweepSpaceProduct)
	}
	n, err := s.expand(nil)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("hwgc: sweep space constraints filter out every point")
	}
	if n > s.MaxPoints {
		return fmt.Errorf("hwgc: sweep space plans more than %d points (cap)", s.MaxPoints)
	}
	return nil
}

func validObjective(name string) bool {
	for _, o := range SweepObjectives {
		if o == name {
			return true
		}
	}
	return false
}

func constraintLess(a, b SweepConstraint) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.B != b.B {
		return a.B < b.B
	}
	av, bv := int64(0), int64(0)
	if a.Value != nil {
		av = *a.Value
	}
	if b.Value != nil {
		bv = *b.Value
	}
	return av < bv
}

func dedupeConstraints(cs []SweepConstraint) []SweepConstraint {
	out := cs[:0]
	for i, c := range cs {
		if i > 0 && !constraintLess(cs[i-1], c) && !constraintLess(c, cs[i-1]) {
			continue
		}
		out = append(out, c)
	}
	return out
}

func dedupeStrings(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, v := range in {
		if i == 0 || in[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func dedupeInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for i, v := range in {
		if i == 0 || in[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func dedupeInt64s(in []int64) []int64 {
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:0]
	for i, v := range in {
		if i == 0 || in[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// satisfied evaluates every constraint against a canonicalized config.
func (s *SweepSpace) satisfied(cfg *Config) bool {
	for _, c := range s.Constraints {
		fa, _ := axisFieldByName(c.A)
		a := fa.get(cfg)
		var b int64
		if c.B != "" {
			fb, _ := axisFieldByName(c.B)
			b = fb.get(cfg)
		} else {
			b = *c.Value
		}
		if !sweepConstraintOps[c.Op](a, b) {
			return false
		}
	}
	return true
}

// expand iterates the cross product in canonical order — benches, scales,
// seeds, then each axis ascending — applying constraints and deduplicating
// by content key (two axis tuples can canonicalize to the same request when
// a zero axis value resolves to a default another value spells explicitly).
// When visit is nil only the count is computed. Returns the planned count.
func (s *SweepSpace) expand(visit func(SweepPoint) error) (int, error) {
	idx := make([]int, len(s.Axes))
	seen := make(map[string]bool)
	n := 0
	for _, bench := range s.Benches {
		for _, scale := range s.Scales {
			for _, seed := range s.Seeds {
				for i := range idx {
					idx[i] = 0
				}
				for {
					cfg := s.Base
					for i, ax := range s.Axes {
						if len(ax.Strings) > 0 {
							ef, _ := enumAxisFieldByName(ax.Field)
							ef.set(&cfg, ax.Strings[idx[i]])
						} else {
							f, _ := axisFieldByName(ax.Field)
							f.set(&cfg, ax.Values[idx[i]])
						}
					}
					cfg = cfg.WithDefaults()
					if s.satisfied(&cfg) {
						req := CollectRequest{Bench: bench, Scale: scale, Seed: seed, Config: cfg, Verify: s.Verify}
						canonical, err := req.CanonicalJSON()
						if err != nil {
							return 0, err
						}
						key := KeyBytes(canonical)
						if !seen[key] {
							seen[key] = true
							if visit != nil {
								if err := visit(SweepPoint{Index: n, Key: key, Canonical: canonical, Req: req}); err != nil {
									return 0, err
								}
							}
							n++
							// One past the cap already proves the space
							// invalid; bail out so a hostile spec cannot
							// make counting itself expensive.
							if visit == nil && n > s.MaxPoints {
								return n, nil
							}
						}
					}
					// Odometer step over the axis value tuples.
					carry := len(idx) - 1
					for ; carry >= 0; carry-- {
						idx[carry]++
						if idx[carry] < len(s.Axes[carry].Values)+len(s.Axes[carry].Strings) {
							break
						}
						idx[carry] = 0
					}
					if carry < 0 {
						break
					}
				}
			}
		}
	}
	return n, nil
}

// Points canonicalizes s and expands it into its planned points, in
// deterministic order. The point list is identical for every planner that
// holds the same canonical space bytes — the property the fleet relies on
// to aggregate a byte-identical frontier from distributed completions.
func (s *SweepSpace) Points() ([]SweepPoint, error) {
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	var pts []SweepPoint
	if _, err := s.expand(func(p SweepPoint) error {
		pts = append(pts, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return pts, nil
}

// PointCount canonicalizes s and returns how many points it plans.
func (s *SweepSpace) PointCount() (int, error) {
	if err := s.Canonicalize(); err != nil {
		return 0, err
	}
	return s.expand(nil)
}

// CanonicalJSON returns the canonical byte encoding of s, canonicalizing it
// in place first.
func (s *SweepSpace) CanonicalJSON() ([]byte, error) {
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// Key returns the sweep ID: the content address of the canonical space.
func (s *SweepSpace) Key() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return KeyBytes(b), nil
}

// DecodeSweepSpace strictly decodes and canonicalizes a SweepSpace from
// JSON: unknown fields, trailing data and every canonicalization error are
// rejected.
func DecodeSweepSpace(r io.Reader) (*SweepSpace, error) {
	var s SweepSpace
	if err := plan.DecodeStrict(r, &s); err != nil {
		return nil, err
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return &s, nil
}
