package machine

import (
	"fmt"
	"testing"
)

// refPlan is the jump decision of a walk over every core, sleepers
// included, as fastForward made it before it kept an awake set: a sleeper
// is dead, accumulates nothing and wakes at SleepUntil. It returns the
// jump (0 for none) and every core's per-cycle kind.
func refPlan(m *Machine) (jump int64, kinds []ffStall) {
	kinds = make([]ffStall, len(m.coreBuf))
	if !m.mem.Quiescent() {
		return 0, kinds
	}
	wakeIn := ffInfinity
	for i := range m.coreBuf {
		c := &m.coreBuf[i]
		if c.SleepUntil > m.cycle {
			wakeIn = min(wakeIn, c.SleepUntil-m.cycle)
			continue
		}
		kind, w, dead := m.deadCore(c)
		if !dead {
			return 0, kinds
		}
		kinds[i] = kind
		wakeIn = min(wakeIn, w)
	}
	if m.scanEnd >= 0 {
		if d := m.mem.LastInflightDoneAt(); d > 0 {
			wakeIn = min(wakeIn, d-m.mem.Cycle())
		}
	}
	if wakeIn == ffInfinity {
		return 0, kinds
	}
	jump = min(wakeIn-1, m.maxCycles-m.cycle)
	return max(jump, 0), kinds
}

// TestFastForwardPlanMatchesFullWalk steps collections cycle by cycle with
// load sleep on and fast-forward off, and checks after every cycle that the
// awake set holds exactly the cores with SleepUntil <= cycle, that nextWake
// is the earliest SleepUntil among the others, and that ffPlan — which
// classifies only the awake cores — decides the same jump and accounts the
// same counters as a walk over every core.
func TestFastForwardPlanMatchesFullWalk(t *testing.T) {
	for _, tc := range []struct {
		name, bench string
		cfg         Config
	}{
		{"latency", "javacc", Config{Cores: 1, ExtraMemLatency: 20}},
		{"flat", "javacc", Config{Cores: 4}},
		{"latency", "javac", Config{Cores: 16, ExtraMemLatency: 20}},
		{"bandwidth-1", "cup", Config{Cores: 8, MemBandwidth: 1}},
		{"startup-store-queue-1", "jlisp", Config{Cores: 4, StartupCycles: 50, MemStoreQueueDepth: 1}},
		{"numa-banks", "db", Config{Cores: 8, NUMADomains: 2, MemBanks: 4, ExtraMemLatency: 20}},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s/cores=%d", tc.bench, tc.name, tc.cfg.Cores), func(t *testing.T) {
			t.Parallel()
			m, err := New(buildBench(t, tc.bench, 1), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.NoFastForward = true
			m.BeginCollect()
			m.microSleep = true
			var slept, jumps int64
			for {
				done, err := m.StepCycle()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				next := ffInfinity
				for i := range m.coreBuf {
					u := m.coreBuf[i].SleepUntil
					if awake := m.awake&(1<<i) != 0; awake != (u <= m.cycle) {
						t.Fatalf("cycle %d: core %d awake=%v with SleepUntil %d", m.cycle, i, awake, u)
					}
					if u > m.cycle {
						next = min(next, u)
						slept++
					}
				}
				if got := m.nextWake(); got != next {
					t.Fatalf("cycle %d: nextWake %d, earliest sleeper wakes at %d", m.cycle, got, next)
				}
				want, kinds := refPlan(m)
				got, counted := m.ffPlan(m.maxCycles, m.scanEnd)
				if got != want {
					t.Fatalf("cycle %d: ffPlan jumps %d, full walk %d", m.cycle, got, want)
				}
				if got <= 0 {
					continue
				}
				jumps++
				for i := range m.coreBuf {
					kind, isCounted := ffNone, counted&(1<<i) != 0
					if isCounted {
						kind = m.ffKinds[i]
					}
					if kind != kinds[i] || isCounted != (kinds[i] != ffNone || m.coreBuf[i].St == sStartup) {
						t.Fatalf("cycle %d: core %d counted=%v kind %d, full walk kind %d", m.cycle, i, isCounted, kind, kinds[i])
					}
				}
			}
			if slept == 0 || jumps == 0 {
				t.Fatalf("no sleeper (%d) or no jump decision (%d) was checked", slept, jumps)
			}
		})
	}
}
