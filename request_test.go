package hwgc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCollectRequestCanonicalize(t *testing.T) {
	r := CollectRequest{Bench: "jlisp"}
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if r.Scale != 1 || r.Seed != 42 || r.Config.Cores != 1 || r.Config.FIFOCapacity == 0 {
		t.Fatalf("defaults not resolved: %+v", r)
	}

	// Equivalent spellings share one canonical encoding and key.
	a := CollectRequest{Bench: "jlisp"}
	b := CollectRequest{Bench: "jlisp", Scale: 1, Seed: 42}
	ja, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("equivalent requests encode differently:\n%s\n%s", ja, jb)
	}
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka == "" || ka != kb {
		t.Fatalf("equivalent requests key differently: %s vs %s", ka, kb)
	}

	// Different simulations key differently.
	c := CollectRequest{Bench: "jlisp", Seed: 7}
	kc, _ := c.Key()
	if kc == ka {
		t.Fatal("different seeds share a key")
	}
}

func TestCollectRequestRejections(t *testing.T) {
	plan := &Plan{}
	plan.NewObj(0, 1)
	plan.AddRoot(0)
	cases := map[string]CollectRequest{
		"nothing":       {},
		"both":          {Bench: "jlisp", Plan: plan},
		"unknown bench": {Bench: "doom"},
		"bad config":    {Bench: "jlisp", Config: Config{Cores: 9999}},
	}
	for name, r := range cases {
		if err := r.Canonicalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPlanRequestCanonicalization(t *testing.T) {
	plan := &Plan{}
	i := plan.NewObj(1, 1)
	j := plan.NewObj(0, 2)
	plan.Link(i, 0, j)
	plan.AddRoot(i)

	r := CollectRequest{Plan: plan, Scale: 9, Seed: 9, Verify: true}
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	// Scale and seed do not influence a plan build; they are zeroed so
	// equivalent plan requests share a key.
	if r.Scale != 0 || r.Seed != 0 {
		t.Fatalf("plan request kept scale/seed: %+v", r)
	}

	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "plan" || res.LiveObjects != 2 || res.Stats.Cycles <= 0 {
		t.Fatalf("plan run result wrong: %+v", res)
	}
}

func TestSweepRequestDefaultsAndRun(t *testing.T) {
	resp, err := NewSweepResponse(SweepRequest{Bench: "jlisp", Cores: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results", len(resp.Results))
	}

	d := SweepRequest{Bench: "jlisp"}
	if err := d.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if len(d.Cores) != len(PaperCoreCounts) {
		t.Fatalf("default cores %v", d.Cores)
	}
	bad := SweepRequest{Bench: "jlisp", Cores: []int{0}}
	if err := bad.Canonicalize(); err == nil {
		t.Error("core count 0 accepted")
	}
	none := SweepRequest{}
	if err := none.Canonicalize(); err == nil {
		t.Error("sweep without bench accepted")
	}
}

func TestCollectResponseEncodingDeterministic(t *testing.T) {
	mk := func() string {
		resp, err := NewCollectResponse(CollectRequest{Bench: "jlisp", Config: Config{Cores: 2}})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := resp.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	one, two := mk(), mk()
	if one != two {
		t.Fatal("re-running the same canonical request changed the encoded response")
	}
	if !strings.HasSuffix(one, "\n") || !strings.Contains(one, `"Cycles"`) {
		t.Fatalf("unexpected wire shape:\n%s", one[:120])
	}
}

// The response wire format is backward compatible across the concurrent-
// collection extension: responses written before Stats.Mutator and
// Config.BarrierMode existed still decode (the new fields stay at their
// zero values), and a concurrent response round-trips with the mutator
// block intact.
func TestCollectResponseCodecCompat(t *testing.T) {
	// A pre-extension response body: no Mutator block, no BarrierMode.
	old := `{
  "Key": "abc",
  "Bench": "jlisp",
  "Result": {
    "Benchmark": "jlisp",
    "Stats": {
      "Cycles": 123,
      "Config": {"Cores": 2}
    },
    "PlanObjects": 1,
    "PlanWords": 8,
    "LiveObjects": 1,
    "LiveWords": 8
  }
}`
	var decoded CollectResponse
	if err := json.Unmarshal([]byte(old), &decoded); err != nil {
		t.Fatalf("pre-extension response failed to decode: %v", err)
	}
	if decoded.Result.Stats.Mutator != nil {
		t.Fatal("pre-extension response decoded with a mutator block")
	}
	if decoded.Result.Stats.Config.BarrierMode != BarrierNone {
		t.Fatalf("pre-extension response decoded with BarrierMode %q", decoded.Result.Stats.Config.BarrierMode)
	}

	// A stop-the-world response must not grow the new fields on the wire.
	stw, err := NewCollectResponse(CollectRequest{Bench: "jlisp", Config: Config{Cores: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := stw.Encode(&b); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"Mutator", "BarrierMode", "MutatorOps"} {
		if strings.Contains(b.String(), field) {
			t.Errorf("stop-the-world response encodes %q:\n%s", field, b.String())
		}
	}

	// A concurrent response round-trips with the mutator block intact.
	conc, err := NewCollectResponse(CollectRequest{Bench: "jlisp",
		Config: Config{Cores: 2, MutatorOps: 1 << 40, BarrierMode: BarrierSATB}})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := conc.Encode(&b); err != nil {
		t.Fatal(err)
	}
	var back CollectResponse
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Result.Stats.Mutator == nil {
		t.Fatal("concurrent response lost its mutator block on the wire")
	}
	if diffs := back.Result.Stats.DiffFields(&conc.Result.Stats); diffs != nil {
		t.Fatalf("concurrent response stats changed across the wire: %v", diffs)
	}
	if back.Result.Stats.Mutator.BarrierInvocations == 0 {
		t.Fatal("concurrent response carries zero barrier invocations")
	}
}

// TestCanonicalizeIdempotent: canonicalizing twice gives what canonicalizing
// once gives, so a request's key never depends on how many layers
// canonicalized it. Negative StartupCycles/ShutdownCycles ("none") used to
// turn into the defaults on a second pass.
func TestCanonicalizeIdempotent(t *testing.T) {
	cfgs := []Config{
		{Cores: 2, StartupCycles: -1, ShutdownCycles: -1},
		{Cores: 4, StartupCycles: -9},
		{ShutdownCycles: -64, NUMADomains: 2, L1Sets: 8},
		{MutatorOps: 100, BarrierMode: "none", NUMAPlacement: "naive"},
	}
	for _, cfg := range cfgs {
		once := CollectRequest{Bench: "jlisp", Config: cfg}
		b1, err := once.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		twice := once
		b2, err := twice.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("collect %+v: once %s, twice %s", cfg, b1, b2)
		}

		sw := SweepRequest{Bench: "jlisp", Cores: []int{1, 2}, Config: cfg}
		s1, err := sw.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := sw.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Errorf("sweep %+v: once %s, twice %s", cfg, s1, s2)
		}
	}

	// Generated configurations: every point a SweepSpace plans is already
	// canonical, so re-canonicalizing it keeps its bytes and key.
	space := SweepSpace{
		Benches: []string{"jlisp"},
		Axes: []SweepAxis{
			{Field: "StartupCycles", Values: []int64{-7, -1, 0, 16}},
			{Field: "ShutdownCycles", Values: []int64{-1, 0}},
			{Field: "Cores", Values: []int64{1, 4}},
		},
	}
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*2*2 { // -7 and -1 are the same "none"
		t.Fatalf("space planned %d points, want 12", len(pts))
	}
	for _, p := range pts {
		req := p.Req
		b, err := req.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, p.Canonical) || KeyBytes(b) != p.Key {
			t.Errorf("point %d: re-canonicalized to %s, planned %s", p.Index, b, p.Canonical)
		}
	}
}

// TestNegativeStartupShutdownHonoured: the response path runs the
// configuration the key names — no startup and no shutdown phase — and
// gives the same Stats as the library call.
func TestNegativeStartupShutdownHonoured(t *testing.T) {
	cfg := Config{Cores: 2, StartupCycles: -1, ShutdownCycles: -1}
	want, err := RunBenchmark("jlisp", 1, DefaultSeed, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewCollectResponse(CollectRequest{Bench: "jlisp", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if d := resp.Result.Stats.DiffFields(&want.Stats); d != nil {
		t.Fatalf("response Stats differ from RunBenchmark: %v", d)
	}
	def, err := RunBenchmark("jlisp", 1, DefaultSeed, Config{Cores: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Cycles >= def.Stats.Cycles {
		t.Errorf("no startup/shutdown ran %d cycles, the defaults %d", want.Stats.Cycles, def.Stats.Cycles)
	}
	defKey, _ := (&CollectRequest{Bench: "jlisp", Config: Config{Cores: 2}}).Key()
	if resp.Key == defKey {
		t.Error("the -1/-1 request shares the default config's key")
	}
}
