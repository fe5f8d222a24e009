package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hwgc/internal/gcalgo"
	"hwgc/internal/heap"
	"hwgc/internal/object"
	"hwgc/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	h := heap.New(64)
	for _, cfg := range []Config{
		{Cores: -1},
		{Cores: MaxCores + 1},
		{Cores: 1, MemLatency: -1},
		{Cores: 1, FIFOCapacity: -1},
	} {
		if _, err := New(h, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(h, Config{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Cores != 1 || c.FIFOCapacity != DefaultFIFOCapacity ||
		c.StartupCycles != DefaultStartupCycles || c.ShutdownCycles != DefaultShutdownCycles {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Every negative value canonicalizes to -1 ("none"), and a second pass
	// keeps it there rather than reading it as "unset".
	c = Config{StartupCycles: -7, ShutdownCycles: -1}.WithDefaults()
	if c.StartupCycles != -1 || c.ShutdownCycles != -1 {
		t.Fatalf("negative overrides wrong: %+v", c)
	}
	if again := c.WithDefaults(); again != c {
		t.Fatalf("WithDefaults not idempotent: %+v then %+v", c, again)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		spec, _ := workload.Get("jlisp")
		h, err := spec.Plan(1, 99).BuildHeap(2.0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(h, Config{Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestEmptyRootSetTerminatesImmediately(t *testing.T) {
	h := heap.New(128)
	_, _ = h.Alloc(0, 5) // garbage only
	h.AddRoot(object.NilPtr)
	m, _ := New(h, Config{Cores: 4})
	st, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveObjects != 0 || st.LiveWords != 0 {
		t.Fatalf("collected something from an empty root set: %+v", st)
	}
	if h.UsedWords() != 0 {
		t.Fatalf("tospace not empty: %d words", h.UsedWords())
	}
}

func TestDuplicateAndSharedRoots(t *testing.T) {
	h := heap.New(128)
	a, _ := h.Alloc(1, 1)
	b, _ := h.Alloc(0, 1)
	h.SetPtr(a, 0, b)
	h.AddRoot(a)
	h.AddRoot(a) // duplicate
	h.AddRoot(b) // shared with a's child
	before, _ := gcalgo.Snapshot(h)
	m, _ := New(h, Config{Cores: 4})
	st, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveObjects != 2 {
		t.Fatalf("live objects = %d, want 2", st.LiveObjects)
	}
	if err := gcalgo.VerifyCollection(before, h); err != nil {
		t.Fatal(err)
	}
	if h.Root(0) != h.Root(1) {
		t.Fatal("duplicate roots forwarded differently")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	spec, _ := workload.Get("jlisp")
	h, _ := spec.Plan(1, 1).BuildHeap(2.0)
	m, _ := New(h, Config{Cores: 2, MaxCycles: 10})
	if _, err := m.Collect(); err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("livelock guard did not fire: %v", err)
	}
}

// TestLivelockBoundScalesWithLatency: with no MaxCycles the bound's
// per-word allowance is scaled by the worst per-access latency over the
// default latency, a factor of exactly 1 at the default latency (so
// snapshots, which carry the bound, are unchanged there).
func TestLivelockBoundScalesWithLatency(t *testing.T) {
	spec, _ := workload.Get("jlisp")
	for _, tc := range []struct {
		cfg   Config
		worst int64
	}{
		{Config{Cores: 2}, 3},
		{Config{Cores: 2, MemLatency: 1}, 3}, // never below the default allowance
		{Config{Cores: 2, ExtraMemLatency: 20}, 23},
		{Config{Cores: 2, MemLatency: 5, ExtraMemLatency: 1000}, 1005},
		{Config{Cores: 2, NUMADomains: 2}, 3 + 8},
		{Config{Cores: 2, NUMADomains: 2, NUMARemotePenalty: 40, ExtraMemLatency: 20}, 3 + 20 + 40},
	} {
		h, _ := spec.Plan(1, 1).BuildHeap(2.0)
		m, err := New(h, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.BeginCollect()
		want := 1_000_000 + 200*int64(h.SemiWords())*tc.worst/3
		if m.maxCycles != want {
			t.Errorf("%+v: bound %d, want %d", tc.cfg, m.maxCycles, want)
		}
	}
}

func TestTospaceOverflowFails(t *testing.T) {
	// Corrupt a live header to a huge size: evacuation must detect that the
	// free pointer would overrun tospace.
	h := heap.New(64)
	a, _ := h.Alloc(1, 1)
	b, _ := h.Alloc(0, 1)
	h.SetPtr(a, 0, b)
	h.AddRoot(a)
	h.Mem()[b] = object.Header{Pi: 0, Delta: object.MaxDelta}.Encode()
	m, _ := New(h, Config{Cores: 2})
	if _, err := m.Collect(); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("overflow undetected: %v", err)
	}
}

func TestOptionMatrixAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("option matrix is slow")
	}
	opts := []Config{
		{Cores: 16, OptUnlockedMarkRead: true},
		{Cores: 16, HeaderCacheLines: 256},
		{Cores: 16, HeaderCacheLines: 1, OptUnlockedMarkRead: true},
		{Cores: 16, DisableFIFO: true},
		{Cores: 16, FIFOCapacity: 8},
		{Cores: 16, ExtraMemLatency: 20},
		{Cores: 16, MemBandwidth: 1},
		{Cores: 16, MemStoreQueueDepth: 1},
		{Cores: 3},  // odd core counts
		{Cores: 64}, // beyond the prototype
		{Cores: 16, StartupCycles: -1, ShutdownCycles: -1},
	}
	for _, name := range workload.Names() {
		for i, cfg := range opts {
			spec, _ := workload.Get(name)
			h, err := spec.Plan(1, 42).BuildHeap(2.0)
			if err != nil {
				t.Fatal(err)
			}
			before, err := gcalgo.Snapshot(h)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Collect(); err != nil {
				t.Fatalf("%s opts[%d]: %v", name, i, err)
			}
			if err := gcalgo.VerifyCollection(before, h); err != nil {
				t.Fatalf("%s opts[%d]: %v", name, i, err)
			}
		}
	}
}

// TestMachineEquivalenceQuick is the central property test: for random
// object graphs (with cycles, self-loops, sharing and garbage), a simulated
// parallel collection at a random core count is indistinguishable from the
// reference collector.
func TestMachineEquivalenceQuick(t *testing.T) {
	f := func(seed int64, coresRaw uint8, markOpt, smallFIFO bool) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := &workload.Plan{}
		n := 2 + rng.Intn(120)
		entry := plan.RandomGraph(rng, n, 4, 5)
		plan.AddRoot(entry)
		if rng.Intn(2) == 0 {
			plan.AddRoot(rng.Intn(n))
		}
		plan.AddRoot(-1)
		plan.FillData(rng)

		h, err := plan.BuildHeap(2.0)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		before, err := gcalgo.Snapshot(h)
		if err != nil {
			t.Logf("snapshot: %v", err)
			return false
		}
		cfg := Config{
			Cores:               1 + int(coresRaw)%16,
			OptUnlockedMarkRead: markOpt,
		}
		if smallFIFO {
			cfg.FIFOCapacity = 2
			cfg.HeaderCacheLines = 32 // exercise the cache together with FIFO misses
		}
		m, err := New(h, cfg)
		if err != nil {
			t.Logf("new: %v", err)
			return false
		}
		st, err := m.Collect()
		if err != nil {
			t.Logf("collect: %v", err)
			return false
		}
		if err := gcalgo.VerifyCollection(before, h); err != nil {
			t.Logf("verify (seed %d cores %d): %v", seed, cfg.Cores, err)
			return false
		}
		sum := st.Sum()
		if sum.ObjectsScanned != sum.ObjectsEvacuated || st.LiveObjects != sum.ObjectsScanned {
			t.Logf("work accounting inconsistent: %+v", sum)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedCollections runs many consecutive GC cycles over the same
// heap, alternating semispaces, verifying each one.
func TestRepeatedCollections(t *testing.T) {
	spec, _ := workload.Get("jlisp")
	h, err := spec.Plan(1, 5).BuildHeap(2.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(h, Config{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	var prevLive int64 = -1
	for i := 0; i < 6; i++ {
		before, err := gcalgo.Snapshot(h)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		st, err := m.Collect()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := gcalgo.VerifyCollection(before, h); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if prevLive >= 0 && st.LiveObjects != prevLive {
			t.Fatalf("cycle %d: live objects changed %d -> %d with no mutation", i, prevLive, st.LiveObjects)
		}
		prevLive = st.LiveObjects
	}
}

// TestStatsInvariants checks the bookkeeping identities that must hold for
// any collection.
func TestStatsInvariants(t *testing.T) {
	st := collectAndVerify(t, "db", Config{Cores: 16})
	sum := st.Sum()
	// Every live object contributes its copied body words plus the two
	// header words of its tospace frame.
	if st.LiveWords != sum.WordsCopied+int64(object.HeaderWords)*st.LiveObjects {
		t.Errorf("live words %d != body words %d + headers of %d objects",
			st.LiveWords, sum.WordsCopied, st.LiveObjects)
	}
	if sum.FIFOHits+sum.FIFOMisses != sum.ObjectsScanned {
		t.Errorf("FIFO hit+miss %d != objects scanned %d", sum.FIFOHits+sum.FIFOMisses, sum.ObjectsScanned)
	}
	if st.Cycles <= st.ScanCycles {
		t.Errorf("total cycles %d not greater than scan cycles %d", st.Cycles, st.ScanCycles)
	}
	if st.EmptyWorklistCycles > st.Cycles {
		t.Errorf("empty cycles exceed total")
	}
	if st.Mem.Accepted[0]+st.Mem.Accepted[1]+st.Mem.Accepted[2]+st.Mem.Accepted[3] != st.Mem.TotalRequests {
		t.Errorf("memory requests lost: %+v", st.Mem)
	}
}

// TestSingleCoreMatchesSequentialWork checks the paper's claim that the
// 1-core configuration performs like the sequential implementation: its
// stall profile must show zero lock contention.
func TestSingleCoreMatchesSequentialWork(t *testing.T) {
	st := collectAndVerify(t, "javac", Config{Cores: 1})
	sum := st.Sum()
	if sum.ScanLockStall != 0 || sum.FreeLockStall != 0 || sum.HeaderLockStall != 0 {
		t.Errorf("single core suffered lock contention: %+v", sum)
	}
	if st.Sync.ScanConflicts != 0 || st.Sync.FreeConflicts != 0 || st.Sync.HeaderConflicts != 0 {
		t.Errorf("single core recorded conflicts: %+v", st.Sync)
	}
}

// TestHeaderCacheReducesLoads checks the Section VII extension: with hub
// traffic (javac), a header cache absorbs the repeated forwarding-pointer
// loads and shortens the collection.
func TestHeaderCacheReducesLoads(t *testing.T) {
	without := collectAndVerify(t, "javac", Config{Cores: 16})
	with := collectAndVerify(t, "javac", Config{Cores: 16, HeaderCacheLines: 4096})
	if with.HeaderCacheHits == 0 {
		t.Fatal("cache never hit")
	}
	if with.Cycles >= without.Cycles {
		t.Errorf("header cache did not help javac: %d vs %d cycles", with.Cycles, without.Cycles)
	}
	memWith := with.Mem.Accepted[0] // header loads reaching memory
	memWithout := without.Mem.Accepted[0]
	if memWith >= memWithout {
		t.Errorf("header loads to memory not reduced: %d vs %d", memWith, memWithout)
	}
}

// TestHeaderCacheConsistency: a tiny, eviction-heavy cache must never break
// correctness (the cache is write-through and always at least as new as
// memory).
func TestHeaderCacheConsistency(t *testing.T) {
	for _, lines := range []int{1, 2, 8} {
		collectAndVerify(t, "javac", Config{Cores: 16, HeaderCacheLines: lines})
		collectAndVerify(t, "cup", Config{Cores: 8, HeaderCacheLines: lines})
	}
}

// TestStrideEquivalence verifies the Section VII stride extension against
// the oracle on every benchmark, with stride sizes from pathological to
// cache-line-like.
func TestStrideEquivalence(t *testing.T) {
	for _, stride := range []int{1, 3, 16, 64} {
		for _, bench := range []string{"blob", "jlisp", "javac", "cup"} {
			cfg := Config{Cores: 16, StrideWords: stride}
			collectAndVerify(t, bench, cfg)
		}
	}
}

// TestStrideQuick: random graphs under stride mode.
func TestStrideQuick(t *testing.T) {
	f := func(seed int64, coresRaw, strideRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		plan := &workload.Plan{}
		n := 2 + rng.Intn(80)
		entry := plan.RandomGraph(rng, n, 4, 9)
		plan.AddRoot(entry)
		plan.FillData(rng)
		h, err := plan.BuildHeap(2.0)
		if err != nil {
			return false
		}
		before, err := gcalgo.Snapshot(h)
		if err != nil {
			return false
		}
		cfg := Config{Cores: 1 + int(coresRaw)%16, StrideWords: 1 + int(strideRaw)%12}
		m, err := New(h, cfg)
		if err != nil {
			return false
		}
		if _, err := m.Collect(); err != nil {
			t.Logf("collect: %v", err)
			return false
		}
		if err := gcalgo.VerifyCollection(before, h); err != nil {
			t.Logf("verify (seed %d, %+v): %v", seed, cfg, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStrideRestoresBlobScaling asserts the extension's purpose: blob does
// not scale at object granularity but does with strides.
func TestStrideRestoresBlobScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("blob sweep is slow")
	}
	cycles := func(cores, stride int) int64 {
		st := collectAndVerify(t, "blob", Config{Cores: cores, StrideWords: stride})
		return st.Cycles
	}
	base := cycles(1, 0)
	objGrain := float64(base) / float64(cycles(16, 0))
	strideGrain := float64(cycles(1, 64)) / float64(cycles(16, 64))
	// At object granularity the speedup is bounded by the object count
	// (six blobs plus the directory); strides lift the bound.
	if objGrain > 6.8 {
		t.Errorf("blob scales %.2fx at object granularity; should be capped near its object count", objGrain)
	}
	if strideGrain < 1.5*objGrain {
		t.Errorf("strides scale %.2fx vs object-level %.2fx; want a clear win", strideGrain, objGrain)
	}
}

// TestBankModelCorrect verifies collections under the DRAM bank model and
// that conflicts slow the collection down (more contention, same result).
func TestBankModelCorrect(t *testing.T) {
	free := collectAndVerify(t, "db", Config{Cores: 16})
	banked := collectAndVerify(t, "db", Config{Cores: 16, MemBanks: 4, MemBankBusy: 4})
	if banked.Mem.BankConflicts == 0 {
		t.Fatal("no bank conflicts recorded at 16 cores over 4 banks")
	}
	if banked.Cycles <= free.Cycles {
		t.Errorf("bank conflicts did not cost anything: %d vs %d cycles", banked.Cycles, free.Cycles)
	}
}
