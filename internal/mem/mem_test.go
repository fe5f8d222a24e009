package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"hwgc/internal/object"
)

func newMem(words int, cfg Config, cores int) *Memory {
	m := New(make([]object.Word, words), cfg)
	m.AttachCores(cores)
	return m
}

func TestLoadLatency(t *testing.T) {
	m := newMem(64, Config{Latency: 3, Bandwidth: 4}, 1)
	m.Write(10, 777)
	if !m.IssueLoad(0, BodyLoad, 10) {
		t.Fatal("issue failed on empty buffer")
	}
	// Tick 1: accepted. Completion at accept+3.
	ticks := 0
	for !m.LoadReady(0, BodyLoad) {
		m.Tick()
		ticks++
		if ticks > 10 {
			t.Fatal("load never completed")
		}
	}
	if ticks != 4 { // 1 acceptance tick + 3 latency
		t.Errorf("load took %d ticks, want 4", ticks)
	}
	if got := m.TakeLoad(0, BodyLoad); got != 777 {
		t.Errorf("loaded %d, want 777", got)
	}
	if m.LoadReady(0, BodyLoad) {
		t.Error("buffer not freed by TakeLoad")
	}
}

func TestLoadBufferSingleOutstanding(t *testing.T) {
	m := newMem(64, Config{}, 1)
	if !m.IssueLoad(0, HeaderLoad, 1) {
		t.Fatal("first issue failed")
	}
	if m.IssueLoad(0, HeaderLoad, 2) {
		t.Fatal("second issue on busy load buffer succeeded")
	}
	// The other load port is independent.
	if !m.IssueLoad(0, BodyLoad, 3) {
		t.Fatal("independent port refused")
	}
}

func TestStoreCommitsAfterLatency(t *testing.T) {
	m := newMem(64, Config{Latency: 2}, 1)
	if !m.IssueStore(0, BodyStore, 5, 99) {
		t.Fatal("issue failed")
	}
	m.Tick() // accepted
	if m.Read(5) == 99 {
		t.Fatal("store committed instantly")
	}
	m.Tick()
	m.Tick() // latency elapsed
	if m.Read(5) != 99 {
		t.Fatalf("store not committed: %d", m.Read(5))
	}
	if !m.Drained() {
		t.Fatal("memory not drained after commit")
	}
}

func TestStoreQueueDepth(t *testing.T) {
	m := newMem(64, Config{StoreQueueDepth: 2, Bandwidth: 1}, 1)
	if !m.IssueStore(0, HeaderStore, 1, 1) || !m.IssueStore(0, HeaderStore, 2, 2) {
		t.Fatal("queue should hold two stores")
	}
	if m.IssueStore(0, HeaderStore, 3, 3) {
		t.Fatal("third store accepted past queue depth")
	}
	if m.StoreBufferFree(0, HeaderStore) {
		t.Fatal("full queue reported free")
	}
	m.Tick() // one acceptance drains one slot
	if !m.IssueStore(0, HeaderStore, 3, 3) {
		t.Fatal("slot not freed after acceptance")
	}
}

func TestHeaderLoadOrderedAfterPendingStore(t *testing.T) {
	m := newMem(64, Config{Latency: 4}, 2)
	// Core 0 stores a header to address 7; core 1 loads it concurrently.
	m.Write(7, 1) // stale value
	if !m.IssueStore(0, HeaderStore, 7, 2) {
		t.Fatal("store issue failed")
	}
	if !m.IssueLoad(1, HeaderLoad, 7) {
		t.Fatal("load issue failed")
	}
	for i := 0; i < 32 && !m.LoadReady(1, HeaderLoad); i++ {
		m.Tick()
	}
	if !m.LoadReady(1, HeaderLoad) {
		t.Fatal("load never completed")
	}
	if got := m.TakeLoad(1, HeaderLoad); got != 2 {
		t.Fatalf("header load returned stale value %d, want 2", got)
	}
	if m.Stats().OrderDelays == 0 {
		t.Fatal("comparator array never delayed the load")
	}
}

func TestBodyLoadsAreNotOrdered(t *testing.T) {
	m := newMem(64, Config{Latency: 8}, 2)
	m.Write(9, 1)
	if !m.IssueStore(0, BodyStore, 9, 2) {
		t.Fatal("store issue failed")
	}
	if !m.IssueLoad(1, BodyLoad, 9) {
		t.Fatal("load issue failed")
	}
	for i := 0; i < 32 && !m.LoadReady(1, BodyLoad); i++ {
		m.Tick()
	}
	// Body accesses need no ordering (each body word is written and read
	// exactly once per GC cycle by the algorithm, never concurrently); the
	// scheduler is free to return either value, and the comparator must not
	// have intervened.
	m.TakeLoad(1, BodyLoad)
	if m.Stats().OrderDelays != 0 {
		t.Fatal("comparator array delayed a body load")
	}
}

func TestBandwidthLimitsAcceptance(t *testing.T) {
	m := newMem(64, Config{Latency: 1, Bandwidth: 2}, 4)
	for c := 0; c < 4; c++ {
		if !m.IssueLoad(c, BodyLoad, object.Addr(c+1)) {
			t.Fatal("issue failed")
		}
	}
	m.Tick() // accepts only 2
	st := m.Stats()
	if st.Accepted[BodyLoad] != 2 {
		t.Fatalf("accepted %d in one cycle with bandwidth 2", st.Accepted[BodyLoad])
	}
	if st.SaturatedCyc != 1 || st.RejectedByBW != 1 {
		t.Fatalf("saturation not recorded: %+v", st)
	}
	m.Tick()
	if m.Stats().Accepted[BodyLoad] != 4 {
		t.Fatalf("remaining loads not accepted next cycle")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// With bandwidth 1 and two cores issuing every cycle, acceptance must
	// alternate rather than starving core 1.
	m := newMem(64, Config{Latency: 1, Bandwidth: 1}, 2)
	accepted := [2]int{}
	for cycle := 0; cycle < 20; cycle++ {
		for c := 0; c < 2; c++ {
			m.IssueLoad(c, BodyLoad, 1)
		}
		m.Tick()
		for c := 0; c < 2; c++ {
			if m.LoadReady(c, BodyLoad) {
				m.TakeLoad(c, BodyLoad)
				accepted[c]++
			}
		}
	}
	if accepted[0] == 0 || accepted[1] == 0 {
		t.Fatalf("starvation under round robin: %v", accepted)
	}
	diff := accepted[0] - accepted[1]
	if diff < -2 || diff > 2 {
		t.Fatalf("unfair acceptance: %v", accepted)
	}
}

func TestDrainedTracksAllTraffic(t *testing.T) {
	m := newMem(64, Config{Latency: 5}, 2)
	if !m.Drained() {
		t.Fatal("fresh memory not drained")
	}
	m.IssueStore(1, BodyStore, 3, 3)
	if m.Drained() {
		t.Fatal("drained with queued store")
	}
	m.IssueLoad(0, HeaderLoad, 4)
	for i := 0; i < 16; i++ {
		m.Tick()
	}
	if m.Drained() {
		t.Fatal("drained with unconsumed load")
	}
	m.TakeLoad(0, HeaderLoad)
	if !m.Drained() {
		t.Fatal("not drained after all traffic settled")
	}
}

func TestExtraLatencyAddsUp(t *testing.T) {
	base := measureLoadTicks(t, Config{Latency: 3})
	slow := measureLoadTicks(t, Config{Latency: 3, ExtraLatency: 20})
	if slow-base != 20 {
		t.Fatalf("extra latency added %d ticks, want 20", slow-base)
	}
}

func measureLoadTicks(t *testing.T, cfg Config) int {
	t.Helper()
	m := newMem(16, cfg, 1)
	m.IssueLoad(0, BodyLoad, 1)
	ticks := 0
	for !m.LoadReady(0, BodyLoad) {
		m.Tick()
		ticks++
		if ticks > 100 {
			t.Fatal("load never completed")
		}
	}
	return ticks
}

func TestMisusePanics(t *testing.T) {
	m := newMem(16, Config{}, 1)
	for _, fn := range []func(){
		func() { m.IssueLoad(0, BodyStore, 1) },
		func() { m.IssueStore(0, BodyLoad, 1, 1) },
		func() { m.TakeLoad(0, BodyLoad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("misuse did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestHeaderOrderingProperty drives random header store/load pairs to the
// same small address range from many cores and checks that a header load
// never observes a value older than the last store issued before it to the
// same address (single-writer discipline, as the locking protocol
// guarantees).
func TestHeaderOrderingProperty(t *testing.T) {
	const cores = 4
	rng := rand.New(rand.NewSource(5))
	m := newMem(32, Config{Latency: 3, Bandwidth: 2}, cores)

	latest := make(map[object.Addr]object.Word) // last value stored per addr
	type pendingLoad struct {
		addr object.Addr
		want object.Word
	}
	pend := make([]*pendingLoad, cores)
	var next object.Word = 1

	for cycle := 0; cycle < 5000; cycle++ {
		for c := 0; c < cores; c++ {
			if pend[c] != nil {
				if m.LoadReady(c, HeaderLoad) {
					got := m.TakeLoad(c, HeaderLoad)
					if got < pend[c].want {
						t.Fatalf("cycle %d: core %d read %d from %d, expected at least %d",
							cycle, c, got, pend[c].addr, pend[c].want)
					}
					pend[c] = nil
				}
				continue
			}
			addr := object.Addr(1 + rng.Intn(4))
			if c == int(addr)%cores && rng.Intn(2) == 0 {
				// Single writer per address: core (addr mod cores).
				if m.IssueStore(c, HeaderStore, addr, next) {
					latest[addr] = next
					next++
				}
			} else if rng.Intn(2) == 0 {
				if m.IssueLoad(c, HeaderLoad, addr) {
					pend[c] = &pendingLoad{addr: addr, want: latest[addr]}
				}
			}
		}
		m.Tick()
	}
}

func TestBankModelDefersConflicts(t *testing.T) {
	// Two loads to the same bank in the same cycle: only one accepted.
	m := newMem(256, Config{Latency: 1, Bandwidth: 8, Banks: 4, BankBusy: 3, BankInterleave: 8}, 2)
	m.IssueLoad(0, BodyLoad, 16) // bank (16/8)%4 = 2
	m.IssueLoad(1, BodyLoad, 48) // bank (48/8)%4 = 2: same bank
	m.Tick()
	st := m.Stats()
	if st.Accepted[BodyLoad] != 1 {
		t.Fatalf("accepted %d requests to one busy bank", st.Accepted[BodyLoad])
	}
	if st.BankConflicts == 0 {
		t.Fatal("bank conflict not recorded")
	}
	// Different bank is unaffected.
	m.IssueLoad(0, HeaderLoad, 24) // bank 3... wait core 0's BodyLoad accepted; use header port
	m.Tick()
	if m.Stats().Accepted[HeaderLoad] != 1 {
		t.Fatal("independent bank refused")
	}
	// After BankBusy elapses the deferred load gets in.
	for i := 0; i < 8; i++ {
		m.Tick()
	}
	if m.Stats().Accepted[BodyLoad] != 2 {
		t.Fatalf("deferred load never accepted: %+v", m.Stats())
	}
}

func TestBankModelOffByDefault(t *testing.T) {
	m := newMem(64, Config{}, 2)
	m.IssueLoad(0, BodyLoad, 16)
	m.IssueLoad(1, BodyLoad, 16)
	m.Tick()
	if m.Stats().BankConflicts != 0 {
		t.Fatal("bank conflicts recorded with the model disabled")
	}
	if m.Stats().Accepted[BodyLoad] != 2 {
		t.Fatal("both loads should be accepted without banks")
	}
}

// waitReady ticks until the load completes, returning the tick count.
func waitReady(t *testing.T, m *Memory, core int, port Port) int {
	t.Helper()
	ticks := 0
	for !m.LoadReady(core, port) {
		m.Tick()
		if ticks++; ticks > 64 {
			t.Fatal("load never completed")
		}
	}
	return ticks
}

func TestNUMARemotePenalty(t *testing.T) {
	// Two domains interleaved at 8 words: [0,8) is domain 0, [8,16) domain 1.
	cfg := Config{Latency: 3, Bandwidth: 8, Domains: 2, RemotePenalty: 5, DomainInterleave: 8}
	m := newMem(64, cfg, 2)

	// Core 0 is affine to domain 0: a domain-0 address is local.
	m.IssueLoad(0, BodyLoad, 4)
	if got := waitReady(t, m, 0, BodyLoad); got != 4 { // 1 acceptance + 3 latency
		t.Errorf("local load took %d ticks, want 4", got)
	}
	m.TakeLoad(0, BodyLoad)

	// A domain-1 address pays the remote penalty.
	m.IssueLoad(0, BodyLoad, 12)
	if got := waitReady(t, m, 0, BodyLoad); got != 9 { // 1 + 3 + 5
		t.Errorf("remote load took %d ticks, want 9", got)
	}
	m.TakeLoad(0, BodyLoad)

	// Core 1 is affine to domain 1: the same address is local for it.
	m.IssueLoad(1, BodyLoad, 12)
	if got := waitReady(t, m, 1, BodyLoad); got != 4 {
		t.Errorf("core-1 local load took %d ticks, want 4", got)
	}
	m.TakeLoad(1, BodyLoad)

	st := m.Stats()
	if st.LocalAccesses != 2 || st.RemoteAccesses != 1 {
		t.Fatalf("local/remote = %d/%d, want 2/1", st.LocalAccesses, st.RemoteAccesses)
	}
}

func TestNUMAAffinityOverride(t *testing.T) {
	cfg := Config{Latency: 2, Domains: 2, RemotePenalty: 10, DomainInterleave: 8,
		Affinity: []int{1, 0}}
	m := newMem(64, cfg, 2)
	// Core 0 is rebound to domain 1, so a domain-1 address is local.
	m.IssueLoad(0, BodyLoad, 8)
	if got := waitReady(t, m, 0, BodyLoad); got != 3 {
		t.Errorf("rebound core's load took %d ticks, want 3", got)
	}
	if st := m.Stats(); st.LocalAccesses != 1 || st.RemoteAccesses != 0 {
		t.Fatalf("local/remote = %d/%d, want 1/0", st.LocalAccesses, st.RemoteAccesses)
	}
}

func TestNUMALocalWindow(t *testing.T) {
	cfg := Config{Latency: 2, Domains: 4, RemotePenalty: 10, DomainInterleave: 4}
	m := newMem(64, cfg, 1)
	// Address 20 is in domain (20/4)%4 = 1: remote for core 0.
	m.IssueLoad(0, BodyLoad, 20)
	if got := waitReady(t, m, 0, BodyLoad); got != 13 {
		t.Errorf("remote load took %d ticks, want 13", got)
	}
	m.TakeLoad(0, BodyLoad)
	// Marking [16, 32) as the locality-aware window makes it local to every
	// core regardless of the interleaving.
	m.SetLocalWindow(16, 32)
	m.IssueLoad(0, BodyLoad, 20)
	if got := waitReady(t, m, 0, BodyLoad); got != 3 {
		t.Errorf("windowed load took %d ticks, want 3", got)
	}
	if st := m.Stats(); st.LocalAccesses != 1 || st.RemoteAccesses != 1 {
		t.Fatalf("local/remote = %d/%d, want 1/1", st.LocalAccesses, st.RemoteAccesses)
	}
}

func TestNUMADomainBandwidth(t *testing.T) {
	// Global bandwidth 8, but each domain accepts one request per cycle.
	cfg := Config{Latency: 1, Bandwidth: 8, Domains: 2, RemotePenalty: 1,
		DomainInterleave: 8, DomainBandwidth: 1}
	m := newMem(64, cfg, 4)
	// Three loads into domain 0, one into domain 1.
	m.IssueLoad(0, BodyLoad, 0)
	m.IssueLoad(1, BodyLoad, 4)
	m.IssueLoad(2, BodyLoad, 6)
	m.IssueLoad(3, BodyLoad, 8)
	m.Tick()
	st := m.Stats()
	if st.Accepted[BodyLoad] != 2 { // one per domain
		t.Fatalf("accepted %d with per-domain budget 1, want 2", st.Accepted[BodyLoad])
	}
	if st.DomainConflicts == 0 {
		t.Fatal("domain conflict not recorded")
	}
	m.Tick()
	m.Tick()
	if st := m.Stats(); st.Accepted[BodyLoad] != 4 {
		t.Fatalf("deferred loads never accepted: %+v", st)
	}
}

func TestCacheHitPath(t *testing.T) {
	cfg := Config{Latency: 6, Bandwidth: 8, L1Sets: 4, L1Ways: 2, L2Sets: 16,
		L2Ways: 4, MSHRs: 4, LineWords: 4}
	m := newMem(256, cfg, 2)
	m.Write(17, 42)

	// Cold: a miss pays the full DRAM latency and fills both levels.
	m.IssueLoad(0, BodyLoad, 17)
	if got := waitReady(t, m, 0, BodyLoad); got != 7 { // 1 + 6
		t.Errorf("cold miss took %d ticks, want 7", got)
	}
	if got := m.TakeLoad(0, BodyLoad); got != 42 {
		t.Errorf("miss returned %d, want 42", got)
	}

	// Warm, same line (addresses 16..19 share line 4): L1 hit, one cycle,
	// no controller acceptance.
	accepted := m.Stats().Accepted[BodyLoad]
	m.IssueLoad(0, BodyLoad, 19)
	if got := waitReady(t, m, 0, BodyLoad); got != HitLatencyL1 {
		t.Errorf("L1 hit took %d ticks, want %d", got, HitLatencyL1)
	}
	m.TakeLoad(0, BodyLoad)
	if got := m.Stats().Accepted[BodyLoad]; got != accepted {
		t.Error("an L1 hit consumed controller bandwidth")
	}

	// The other core's private L1 is cold, but the shared L2 hits (and
	// fills that core's L1).
	m.IssueLoad(1, BodyLoad, 17)
	if got := waitReady(t, m, 1, BodyLoad); got != HitLatencyL2 {
		t.Errorf("L2 hit took %d ticks, want %d", got, HitLatencyL2)
	}
	m.TakeLoad(1, BodyLoad)
	m.IssueLoad(1, BodyLoad, 16)
	if got := waitReady(t, m, 1, BodyLoad); got != HitLatencyL1 {
		t.Errorf("post-fill L1 hit took %d ticks, want %d", got, HitLatencyL1)
	}
	m.TakeLoad(1, BodyLoad)

	st := m.Stats()
	if st.L1Hits != 2 || st.L2Hits != 1 || st.L1Misses != 2 || st.L2Misses != 1 {
		t.Fatalf("hit/miss counters = %+v", st)
	}
}

func TestCacheMSHRExhaustionStalls(t *testing.T) {
	cfg := Config{Latency: 8, L1Sets: 4, MSHRs: 1}
	m := newMem(256, cfg, 2)
	if !m.IssueLoad(0, BodyLoad, 0) {
		t.Fatal("first miss refused")
	}
	if m.IssueLoad(1, BodyLoad, 64) {
		t.Fatal("second miss accepted with a single MSHR")
	}
	if m.Stats().MSHRFullStalls == 0 {
		t.Fatal("MSHR-full stall not recorded")
	}
	waitReady(t, m, 0, BodyLoad)
	m.TakeLoad(0, BodyLoad)
	// Completion freed the MSHR.
	if !m.IssueLoad(1, BodyLoad, 64) {
		t.Fatal("MSHR not freed by completion")
	}
}

func TestCachePendingStoreBypassesTags(t *testing.T) {
	cfg := Config{Latency: 5, L1Sets: 4, MSHRs: 4, LineWords: 4}
	m := newMem(256, cfg, 2)
	m.Write(8, 1)
	// Warm the line so a naive lookup would hit.
	m.IssueLoad(0, BodyLoad, 8)
	waitReady(t, m, 0, BodyLoad)
	m.TakeLoad(0, BodyLoad)
	// With a store to the same address still pending, the load must go to
	// memory (the tag array holds no data), not report a stale hit.
	m.IssueStore(0, HeaderStore, 8, 2)
	m.IssueLoad(1, HeaderLoad, 8)
	waitReady(t, m, 1, HeaderLoad)
	if got := m.TakeLoad(1, HeaderLoad); got != 2 {
		t.Fatalf("load under a pending same-address store returned %d, want 2", got)
	}
}

func TestHierarchyStateRoundTrip(t *testing.T) {
	cfg := Config{Latency: 4, Bandwidth: 2, Domains: 2, RemotePenalty: 6,
		DomainInterleave: 8, DomainBandwidth: 1, L1Sets: 4, L1Ways: 2,
		MSHRs: 2, LineWords: 4}
	m := newMem(256, cfg, 4)
	// Put the scheduler mid-flight: warm lines, pending loads and stores.
	m.IssueLoad(0, BodyLoad, 3)
	m.IssueLoad(1, BodyLoad, 40)
	m.IssueStore(2, HeaderStore, 9, 7)
	m.IssueStore(2, BodyStore, 60, 8)
	m.Tick()
	m.Tick()
	m.IssueLoad(3, HeaderLoad, 9)
	m.Tick()

	st := m.CaptureState()
	m2 := New(make([]object.Word, 256), cfg)
	m2.AttachCores(4)
	if err := m2.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if st2 := m2.CaptureState(); !reflect.DeepEqual(st, st2) {
		t.Fatalf("state changed across restore:\n%+v\n%+v", st, st2)
	}
	// The restored scheduler must evolve identically.
	for i := 0; i < 32; i++ {
		m.Tick()
		m2.Tick()
	}
	if !reflect.DeepEqual(m.CaptureState(), m2.CaptureState()) {
		t.Fatal("restored scheduler diverged from the original")
	}
}

func TestHierarchyStateRejectsMismatch(t *testing.T) {
	flat := newMem(64, Config{}, 1)
	hier := newMem(64, Config{Domains: 2, L1Sets: 4}, 1)
	st := hier.CaptureState()
	st.L1Comp = []int64{1 << 16}
	if err := flat.RestoreState(st); err == nil {
		t.Fatal("flat scheduler accepted hierarchy completions")
	}
	st2 := flat.CaptureState()
	st2.L1 = [][]CacheLineState{{{Valid: true, Tag: 1}}}
	if err := flat.RestoreState(st2); err == nil {
		t.Fatal("flat scheduler accepted cache tags")
	}
	st3 := hier.CaptureState()
	st3.Cores[0].HeaderLoad = LoadBuffer{Valid: true, Accepted: true, Class: 9}
	if err := hier.RestoreState(st3); err == nil {
		t.Fatal("out-of-range completion class accepted")
	}
}

// TestFlatPathMatchesGeneralPath drives one seeded random request stream
// through two memories on the same flat configuration: one on the flat path
// New selects, one forced onto the general path. After every Tick (and
// every fast-forward jump) the two must agree on the statistics, on every
// load buffer's LoadReady/LoadPending answer, on the full scheduler state
// and on every committed word. Header traffic goes to a few hot addresses,
// so same-address header stores from different cores exercise the
// comparator ordering; core counts past 64 cover a multi-word waitMask.
func TestFlatPathMatchesGeneralPath(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Latency:         1 + rng.Intn(4),
			ExtraLatency:    []int{0, 0, 20}[rng.Intn(3)],
			Bandwidth:       1 + rng.Intn(8),
			StoreQueueDepth: 1 + rng.Intn(4),
		}
		cores := []int{1, 2, 5, 16, 70}[rng.Intn(5)]
		const words = 512
		fast := newMem(words, cfg, cores)
		slow := newMem(words, cfg, cores)
		if !fast.flat {
			t.Fatalf("seed %d: flat config %+v did not select the flat path", seed, cfg)
		}
		slow.flat = false
		ms := [2]*Memory{fast, slow}

		addr := func(header bool) object.Addr {
			if header {
				return object.Addr(1 + rng.Intn(12))
			}
			return object.Addr(1 + rng.Intn(words-1))
		}
		for tick := 0; tick < 3000; tick++ {
			if tick == 1500 {
				// A new collection cycle over an aborted one.
				cores = 1 + rng.Intn(70)
				for _, m := range ms {
					m.AttachCores(cores)
				}
			}
			// Bursts of traffic alternate with quiet stretches in which the
			// scheduler drains and fast-forward jumps become possible.
			n := 0
			if tick%200 < 120 {
				n = rng.Intn(cores + 1)
			}
			for ; n > 0; n-- {
				c := rng.Intn(cores)
				var got [2]any
				switch op := rng.Intn(8); op {
				case 0, 1, 2, 3:
					port := []Port{HeaderLoad, BodyLoad}[op%2]
					a := addr(port == HeaderLoad)
					for i, m := range ms {
						got[i] = m.IssueLoad(c, port, a)
					}
				case 4, 5:
					port := []Port{HeaderLoad, BodyLoad}[op%2]
					for i, m := range ms {
						w, done, ok := m.PollLoad(c, port)
						got[i] = [3]any{w, done, ok}
					}
				default:
					port := []Port{HeaderStore, BodyStore}[op%2]
					a, w := addr(port == HeaderStore), object.Word(rng.Uint64())
					for i, m := range ms {
						got[i] = m.IssueStore(c, port, a, w)
					}
				}
				if got[0] != got[1] {
					t.Fatalf("seed %d tick %d: flat path returned %v, general path %v", seed, tick, got[0], got[1])
				}
			}
			if fast.Quiescent() && rng.Intn(4) == 0 {
				d := 1 + rng.Int63n(30)
				for _, m := range ms {
					m.FastForwardBy(d)
				}
			} else {
				for _, m := range ms {
					m.Tick()
				}
			}
			if fast.Stats() != slow.Stats() {
				t.Fatalf("seed %d tick %d: stats differ:\nflat    %+v\ngeneral %+v", seed, tick, fast.Stats(), slow.Stats())
			}
			for c := 0; c < cores; c++ {
				for _, p := range loadPorts {
					d0, ok0 := fast.LoadPending(c, p)
					d1, ok1 := slow.LoadPending(c, p)
					if fast.LoadReady(c, p) != slow.LoadReady(c, p) || d0 != d1 || ok0 != ok1 {
						t.Fatalf("seed %d tick %d: core %d %v buffers differ", seed, tick, c, p)
					}
				}
			}
			if !reflect.DeepEqual(fast.CaptureState(), slow.CaptureState()) {
				t.Fatalf("seed %d tick %d: scheduler states differ", seed, tick)
			}
			if !reflect.DeepEqual(fast.Data(), slow.Data()) {
				t.Fatalf("seed %d tick %d: committed words differ", seed, tick)
			}
		}
	}
}
