package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"hwgc/internal/object"
)

// comparatorRef is the per-address reference of the comparator array,
// recounted from the scheduler's queues and in-flight list: how many header
// stores to each address are queued and in flight, how many stores of any
// kind are pending, and the issue sequence numbers of the queued header
// stores.
type comparatorRef struct {
	hdrQueued, hdrInflight, stores map[object.Addr]int
	hdrSeqs                        map[object.Addr][]int64
}

func newComparatorRef(m *Memory) *comparatorRef {
	r := &comparatorRef{
		hdrQueued:   map[object.Addr]int{},
		hdrInflight: map[object.Addr]int{},
		stores:      map[object.Addr]int{},
		hdrSeqs:     map[object.Addr][]int64{},
	}
	for i := range m.storeQ {
		for j := range m.storeQ[i] {
			q := &m.storeQ[i][j]
			for k := 0; k < q.n; k++ {
				s := q.at(k)
				r.stores[s.Addr]++
				if j == storeIdx(HeaderStore) {
					r.hdrQueued[s.Addr]++
					r.hdrSeqs[s.Addr] = append(r.hdrSeqs[s.Addr], s.Seq)
				}
			}
		}
	}
	for _, s := range m.inflight[m.inflightHead:] {
		r.stores[s.Addr]++
		if s.Header {
			r.hdrInflight[s.Addr]++
		}
	}
	return r
}

// check compares every comparator probe on the address pool, and the hashed
// slot counters themselves, with the reference.
func (r *comparatorRef) check(m *Memory, pool []object.Addr) error {
	var hdrSlots [cntSlots]uint64
	var stSlots [cntSlots]uint32
	for a, n := range r.hdrQueued {
		hdrSlots[cntSlot(a)] += uint64(n) * hdrCntQueuedOne
	}
	for a, n := range r.hdrInflight {
		hdrSlots[cntSlot(a)] += uint64(n) * hdrCntInflightOne
	}
	for a, n := range r.stores {
		stSlots[cntSlot(a)] += uint32(n)
	}
	if hdrSlots != m.hdrCnt {
		return fmt.Errorf("header-store slot counters differ from the queues")
	}
	if m.l1Sets > 0 && stSlots != m.stCnt {
		return fmt.Errorf("store slot counters differ from the queues")
	}
	for _, a := range pool {
		want := r.hdrQueued[a]+r.hdrInflight[a] > 0
		if got := m.headerStorePending(a); got != want {
			return fmt.Errorf("headerStorePending(%d) = %v, reference %v", a, got, want)
		}
		if m.l1Sets > 0 {
			if got, want := m.storePending(a), r.stores[a] > 0; got != want {
				return fmt.Errorf("storePending(%d) = %v, reference %v", a, got, want)
			}
		}
		for _, seq := range r.hdrSeqs[a] {
			want := false
			for _, other := range r.hdrSeqs[a] {
				want = want || other < seq
			}
			if got := m.headerStoreOrderedBefore(a, seq); got != want {
				return fmt.Errorf("headerStoreOrderedBefore(%d, seq %d) = %v, reference %v", a, seq, got, want)
			}
		}
	}
	return nil
}

// collidingPool returns addresses below size that share a few counter
// slots: for each of the slots of base, base+1, ... it takes up to per
// addresses hashing there.
func collidingPool(size, slots, per int) []object.Addr {
	var pool []object.Addr
	for s := 0; s < slots; s++ {
		want := cntSlot(object.Addr(s + 1))
		n := 0
		for a := 1; a < size && n < per; a++ {
			if cntSlot(object.Addr(a)) == want {
				pool = append(pool, object.Addr(a))
				n++
			}
		}
	}
	return pool
}

// TestComparatorMatchesPerAddressReference drives random issue, accept and
// commit sequences over addresses that collide in the hashed counters,
// under the flat, bank, NUMA and cache configurations. After every issue
// and every cycle the comparator's probes agree with a per-address
// reference, and header stores to one address commit in issue order, which
// is what insertInflight's clamp and headerStoreOrderedBefore protect.
// Mid-run it also aborts the cycle (AttachCores must leave no pending
// count) and round-trips the state (RestoreState must rebuild the counters).
func TestComparatorMatchesPerAddressReference(t *testing.T) {
	const words = 1 << 15
	cfgs := []Config{
		{},
		{Latency: 2, Bandwidth: 2, StoreQueueDepth: 3},
		{Banks: 4, BankBusy: 3},
		{Domains: 2, RemotePenalty: 9},
		{Domains: 4, RemotePenalty: 5, DomainBandwidth: 1, Bandwidth: 3},
		{L1Sets: 4, MSHRs: 2},
		{L1Sets: 4, Domains: 2, RemotePenalty: 7, ExtraLatency: 4},
	}
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cfg%d/seed%d", ci, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
				pool := collidingPool(words, 3, 6)
				hdrPool, bodyPool := pool[:len(pool)/2], pool[len(pool)/2:]
				cores := 1 + rng.Intn(6)
				m := newMem(words, cfg, cores)
				last := map[object.Addr]object.Word{} // committed header value per address
				var data object.Word
				check := func(when string) {
					t.Helper()
					if err := newComparatorRef(m).check(m, pool); err != nil {
						t.Fatalf("%s (cycle %d): %v", when, m.Cycle(), err)
					}
				}
				for step := 0; step < 3000; step++ {
					for c := 0; c < cores; c++ {
						switch rng.Intn(5) {
						case 0, 1:
							// Header stores carry increasing values, so a
							// committed header may only grow.
							data++
							m.IssueStore(c, HeaderStore, hdrPool[rng.Intn(len(hdrPool))], data)
						case 2:
							m.IssueStore(c, BodyStore, bodyPool[rng.Intn(len(bodyPool))], 0)
						case 3:
							m.IssueLoad(c, HeaderLoad, hdrPool[rng.Intn(len(hdrPool))])
						case 4:
							m.IssueLoad(c, BodyLoad, bodyPool[rng.Intn(len(bodyPool))])
						}
						for _, p := range loadPorts {
							if m.LoadReady(c, p) {
								m.TakeLoad(c, p)
							}
						}
					}
					check("after issue")
					m.Tick()
					check("after tick")
					for _, a := range hdrPool {
						if w := m.Read(a); w < last[a] {
							t.Fatalf("cycle %d: header %d went from %d back to %d", m.Cycle(), a, last[a], w)
						} else {
							last[a] = w
						}
					}
					switch step {
					case 1000:
						st := m.CaptureState()
						r := New(make([]object.Word, words), cfg)
						r.AttachCores(cores)
						if err := r.RestoreState(st); err != nil {
							t.Fatal(err)
						}
						if r.hdrCnt != m.hdrCnt || r.stCnt != m.stCnt {
							t.Fatal("restored counters differ from the live ones")
						}
						check("after restore")
					case 2000:
						m.AttachCores(cores) // abort: every queued and in-flight store is dropped
						if m.hdrCnt != [cntSlots]uint64{} || m.stCnt != [cntSlots]uint32{} {
							t.Fatal("AttachCores left pending counts after an aborted cycle")
						}
						for _, a := range hdrPool {
							last[a] = m.Read(a)
						}
						check("after abort")
					}
				}
				for !m.Drained() {
					m.Tick()
					for c := 0; c < cores; c++ {
						for _, p := range loadPorts {
							if m.LoadReady(c, p) {
								m.TakeLoad(c, p)
							}
						}
					}
				}
				if m.hdrCnt != [cntSlots]uint64{} || m.stCnt != [cntSlots]uint32{} {
					t.Fatal("counters not back to zero after the drain")
				}
			})
		}
	}
}
