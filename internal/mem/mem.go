// Package mem models the coprocessor's memory interface and memory access
// scheduler (paper Section V-D).
//
// Each core owns four single-entry buffers for asynchronous memory accesses,
// one per port: header load, header store, body load, and body store. A core
// may initiate a transfer at any time and only stalls when it
//
//   - tries to write to a store buffer while the previous store has not yet
//     been accepted by the memory controller, or
//   - tries to read from a load buffer while the corresponding load has not
//     completed.
//
// Transfers are handled asynchronously with a split-transaction scheme: the
// controller accepts up to Bandwidth requests per core clock cycle (the
// prototype's DDR-SDRAM runs at at least four times the core clock), and a
// request completes Latency cycles after acceptance.
//
// Ordering is enforced only where the algorithm requires it: a header load
// is delayed while a header store to the same location is pending (the
// prototype's comparator array). Body accesses need no ordering because each
// body word is written and read exactly once per collection cycle; the
// scheduler only guarantees that all buffers are flushed at the end of a GC
// cycle (Drained).
//
// The scheduler also supports event-driven fast-forwarding by the machine's
// cycle loop: Quiescent, LoadPending and LastInflightDoneAt expose when the
// next state transition can occur, and FastForwardBy advances the clock over
// a window of dead cycles in one jump. While Quiescent, a Tick performs no
// acceptance and changes no statistic, so skipping such ticks (and applying
// the due commits and completions at the jump target) is observationally
// identical to stepping them.
package mem

import (
	"fmt"
	"math/bits"

	"hwgc/internal/object"
)

// Port identifies one of the four per-core memory ports.
type Port int

// The four ports of paper Section V-D.
const (
	HeaderLoad Port = iota
	HeaderStore
	BodyLoad
	BodyStore
	numPorts
)

// String returns the conventional name of the port.
func (p Port) String() string {
	switch p {
	case HeaderLoad:
		return "header-load"
	case HeaderStore:
		return "header-store"
	case BodyLoad:
		return "body-load"
	case BodyStore:
		return "body-store"
	default:
		return fmt.Sprintf("port(%d)", int(p))
	}
}

// IsLoad reports whether the port is a load port.
func (p Port) IsLoad() bool { return p == HeaderLoad || p == BodyLoad }

// IsHeader reports whether the port carries header traffic.
func (p Port) IsHeader() bool { return p == HeaderLoad || p == HeaderStore }

// loadPorts enumerates the two load ports for scan loops.
var loadPorts = [2]Port{HeaderLoad, BodyLoad}

// Config parameterizes the memory model.
type Config struct {
	// Latency is the number of cycles between acceptance of a request and
	// its completion. The prototype's latency is "in the range of a few
	// clock cycles"; the default is 3.
	Latency int
	// ExtraLatency is added to Latency; it models the paper's Figure 6
	// experiment, which adds an artificial 20 cycles to each access.
	ExtraLatency int
	// Bandwidth is the number of requests the controller accepts per core
	// clock cycle. The prototype's DDR-SDRAM runs at at least four times the
	// 25 MHz core clock and transfers two words per memory clock, so several
	// words arrive per core cycle; the default is 6, which calibrates the
	// simulator's 16-core scaling to the paper's measured ×12.1.
	Bandwidth int
	// StoreQueueDepth is the number of stores a store port can hold before
	// the core stalls on issue. Loads always allow a single outstanding
	// request per port (the core needs the data before it can continue),
	// but stores are write-behind: the prototype's cores only stall on a
	// store "while the previous store is not complete", where completion
	// means hand-off to the split-transaction controller. Default 2.
	StoreQueueDepth int

	// Banks, when positive, enables a DRAM bank model: the address space is
	// interleaved over Banks banks at BankInterleave-word granularity, and
	// after accepting a request a bank is busy for BankBusy cycles. Requests
	// to a busy bank are skipped by the arbiter (and counted as bank
	// conflicts) even when global bandwidth is available. Zero disables the
	// model, leaving the pure bandwidth/latency scheduler of the paper's
	// calibration.
	Banks          int
	BankBusy       int
	BankInterleave int

	// Domains, when positive, enables a NUMA model: the address space is
	// interleaved over Domains memory domains at DomainInterleave-word
	// granularity, each core is affine to one domain (round-robin by core
	// index unless Affinity overrides it), and an access whose address lives
	// in another domain pays RemotePenalty extra cycles of latency.
	// DomainBandwidth, when positive, additionally caps the number of
	// requests each domain accepts per cycle (on top of the global
	// Bandwidth). SetLocalWindow can mark an address range — the
	// locality-aware tospace — as local to every core. Zero disables the
	// model.
	Domains          int
	RemotePenalty    int
	DomainInterleave int
	DomainBandwidth  int
	// Affinity optionally maps core index to domain; cores beyond its
	// length (and all cores when nil) use core % Domains.
	Affinity []int

	// L1Sets, when positive, enables a two-level cache model in front of the
	// scheduler: a private per-core L1 (L1Sets sets × L1Ways ways) and a
	// shared L2 (L2Sets × L2Ways), both with LineWords words per line. The
	// model is tag-only — data always comes from the backing store at
	// completion time — so it changes timing, never values. A load that hits
	// completes after a short fixed latency (HitLatencyL1/HitLatencyL2)
	// without consuming controller bandwidth; a miss allocates one of MSHRs
	// miss-status registers and falls through to the NUMA/bank/bandwidth
	// path, filling both levels on completion. When every MSHR is in use the
	// issuing port stalls. Stores are write-through no-allocate and bypass
	// the tags entirely. Zero disables the model.
	L1Sets    int
	L1Ways    int
	L2Sets    int
	L2Ways    int
	MSHRs     int
	LineWords int
}

// Defaults for zero-valued Config fields.
const (
	DefaultLatency          = 3
	DefaultBandwidth        = 6
	DefaultStoreQueueDepth  = 2
	DefaultBankBusy         = 2
	DefaultBankInterleave   = 8
	DefaultRemotePenalty    = 8
	DefaultDomainInterleave = 64
	DefaultL1Ways           = 2
	DefaultL2Ways           = 4
	DefaultMSHRs            = 8
	DefaultLineWords        = 4
)

// Cache hit latencies in core cycles. An L1 hit completes on the next
// cycle; an L2 hit one cycle later. Both undercut even the minimum DRAM
// latency, which is the point of the model.
const (
	HitLatencyL1 = 1
	HitLatencyL2 = 2
)

func (c Config) withDefaults() Config {
	if c.Latency <= 0 {
		c.Latency = DefaultLatency
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = DefaultBandwidth
	}
	if c.ExtraLatency < 0 {
		c.ExtraLatency = 0
	}
	if c.StoreQueueDepth <= 0 {
		c.StoreQueueDepth = DefaultStoreQueueDepth
	}
	if c.Banks > 0 {
		if c.BankBusy <= 0 {
			c.BankBusy = DefaultBankBusy
		}
		if c.BankInterleave <= 0 {
			c.BankInterleave = DefaultBankInterleave
		}
	}
	if c.Domains > 0 {
		if c.RemotePenalty <= 0 {
			c.RemotePenalty = DefaultRemotePenalty
		}
		if c.DomainInterleave <= 0 {
			c.DomainInterleave = DefaultDomainInterleave
		}
	}
	if c.L1Sets > 0 {
		if c.L1Ways <= 0 {
			c.L1Ways = DefaultL1Ways
		}
		if c.L2Sets <= 0 {
			c.L2Sets = 4 * c.L1Sets
		}
		if c.L2Ways <= 0 {
			c.L2Ways = DefaultL2Ways
		}
		if c.MSHRs <= 0 {
			c.MSHRs = DefaultMSHRs
		}
		if c.LineWords <= 0 {
			c.LineWords = DefaultLineWords
		}
	}
	return c
}

// Completion classes: every accepted load belongs to one latency class, and
// each class has its own completion ring so acceptance order within a class
// is also completion order. The flat model uses only classDRAM; the NUMA
// model adds classRemote; the cache model adds the two hit classes.
const (
	classDRAM   = 0 // flat or NUMA-local DRAM access
	classRemote = 1 // NUMA remote DRAM access (lat + RemotePenalty)
	classL1     = 2 // L1 hit
	classL2     = 3 // L2 hit
	numClasses  = 4
)

// LoadBuffer is one single-entry per-core load-port buffer. Class is the
// completion class of an accepted load (classDRAM when the memory hierarchy
// is disabled).
type LoadBuffer struct {
	Valid    bool // request present (issued by the core)
	Accepted bool // accepted by the controller
	Ready    bool // load data available
	Class    uint8
	Addr     object.Addr
	Data     object.Word
	DoneAt   int64
}

// LoadAccept records one load accepted by the controller: the core and load
// port it belongs to and its completion cycle.
type LoadAccept struct {
	Core   int
	Port   Port
	DoneAt int64
}

// InflightStore is a store that has been accepted but not yet committed; it
// is tracked so the comparator array can delay same-address header loads.
// Because every store is accepted with the same latency, the inflight list
// is ordered by DoneAt and commits strip a prefix.
type InflightStore struct {
	Addr   object.Addr
	Data   object.Word
	Header bool
	DoneAt int64
}

// Stats holds the memory system's performance counters. The
// memory-hierarchy counters carry omitempty so the encoded statistics of a
// flat-configuration run are byte-identical to builds that predate the
// NUMA/cache models.
type Stats struct {
	Accepted      [int(numPorts)]int64 // requests accepted, per port
	BusyCycles    int64                // cycles with at least one acceptance
	SaturatedCyc  int64                // cycles where Bandwidth requests were accepted
	OrderDelays   int64                // header loads delayed by the comparator array
	BankConflicts int64                // acceptances deferred by a busy DRAM bank
	PeakPending   int                  // maximum simultaneously pending requests
	RejectedByBW  int64                // request-cycles denied purely by bandwidth
	TotalRequests int64

	LocalAccesses   int64 `json:",omitempty"` // DRAM acceptances served by the requester's domain
	RemoteAccesses  int64 `json:",omitempty"` // DRAM acceptances paying the remote penalty
	DomainConflicts int64 `json:",omitempty"` // acceptances deferred by an exhausted domain budget
	L1Hits          int64 `json:",omitempty"`
	L1Misses        int64 `json:",omitempty"`
	L2Hits          int64 `json:",omitempty"`
	L2Misses        int64 `json:",omitempty"`
	MSHRFullStalls  int64 `json:",omitempty"` // load issues rejected because every MSHR was busy
}

// StoreReq is a store waiting in a core's store-port queue for acceptance.
// Seq is a global issue sequence number used by the comparator array to keep
// same-address header stores in issue order.
type StoreReq struct {
	Addr object.Addr
	Data object.Word
	Seq  int64
}

// storeRing is a fixed-capacity FIFO of write-behind stores for one store
// port. A ring avoids the per-accept slice reslicing and re-append growth of
// a plain slice queue — the queue is bounded by StoreQueueDepth, so the
// backing array is allocated once per core and reused for the whole run.
type storeRing struct {
	buf  []StoreReq
	head int
	n    int
}

func (r *storeRing) push(s StoreReq) {
	p := r.head + r.n
	if p >= len(r.buf) {
		p -= len(r.buf)
	}
	r.buf[p] = s
	r.n++
}

func (r *storeRing) front() *StoreReq { return &r.buf[r.head] }

func (r *storeRing) pop() {
	r.head++
	if r.head >= len(r.buf) {
		r.head = 0
	}
	r.n--
}

// at returns the i-th queued store in FIFO order.
func (r *storeRing) at(i int) *StoreReq {
	p := r.head + i
	if p >= len(r.buf) {
		p -= len(r.buf)
	}
	return &r.buf[p]
}

// The comparator array's pending-store counters (Memory.hdrCnt, and under
// the cache model Memory.stCnt) are fixed-size arrays of cntSlots counters
// indexed by a hash of the word address, not one counter per heap word: the
// hardware compares an address only with the few requests in flight, and
// the scheduler's state should scale the same way. A slot counts the pending
// stores of every address that hashes to it, so a zero slot proves that no
// store to the address is pending — one load of a small array, the common
// case — and a non-zero slot is resolved by an exact scan of the store
// queues and the in-flight list, which together hold every pending store.
// A hdrCnt slot packs the header stores waiting in a write-behind queue (low
// 32 bits) and those accepted but not yet committed (high 32 bits); both
// halves drain back to zero as the stores commit, and AttachCores clears the
// arrays after an aborted collection, so they never need a per-word clear.
const (
	cntBits           = 12
	cntSlots          = 1 << cntBits
	hdrCntQueuedOne   = 1       // one queued header store
	hdrCntInflightOne = 1 << 32 // one accepted, uncommitted header store
	hdrCntQueuedMask  = 1<<32 - 1
)

// cntSlot hashes a word address to its counter slot (Fibonacci hashing, so
// nearby and power-of-two-strided addresses spread over the slots).
func cntSlot(a object.Addr) uint32 { return uint32(a) * 0x9E3779B1 >> (32 - cntBits) }

// intRing is a fixed-capacity FIFO of small integers (the load-completion
// queue; capacity 2 entries per core bounds it).
type intRing struct {
	buf  []int64
	head int
	n    int
}

func (r *intRing) push(v int64) {
	p := r.head + r.n
	if p >= len(r.buf) {
		p -= len(r.buf)
	}
	r.buf[p] = v
	r.n++
}

func (r *intRing) front() int64 { return r.buf[r.head] }

func (r *intRing) pop() {
	r.head++
	if r.head >= len(r.buf) {
		r.head = 0
	}
	r.n--
}

// Memory is the simulated memory plus its access scheduler. It is not safe
// for concurrent use; the cycle-stepped machine drives it from one
// goroutine. The software baseline collectors bypass the timing model
// entirely and operate on the backing slice directly.
type Memory struct {
	data         []object.Word
	lat          int64
	bw           int
	sqDepth      int
	banks        int
	bankBusy     int64
	interleave   int
	busyUntil    []int64
	cycle        int64
	bufs         [][numPorts]LoadBuffer // load ports only
	storeQ       [][2]storeRing         // store ports: [0]=HeaderStore, [1]=BodyStore
	inflight     []InflightStore        // accepted stores, ordered by DoneAt
	inflightHead int                    // first uncommitted entry of inflight
	rr           int                    // round-robin arbitration pointer
	seq          int64                  // store issue sequence numbers
	stats        Stats

	// Derived occupancy counters, maintained incrementally so the per-cycle
	// Tick can skip whole phases (and the machine's fast-forward can test
	// quiescence) without scanning every buffer.
	unaccepted    int              // issued requests not yet accepted (loads + queued stores)
	storeQueued   int              // stores waiting in some core's write-behind queue
	validLoads    int              // occupied load buffers (accepted or not, taken or not)
	acceptedLoads int              // accepted loads whose data is not yet ready
	hdrCnt        [cntSlots]uint64 // pending header stores per address slot

	// waiting has one bit per port (1<<port) for every core with a request
	// awaiting acceptance, so arbitration skips idle cores with one load.
	waiting []uint8

	// waitMask packs one bit per core with waiting[core] != 0, so the
	// arbitration loop jumps between waiting cores instead of scanning all
	// of them.
	waitMask []uint64

	// tickAccepts lists the loads the current Tick accepted, in acceptance
	// order. It is cleared at the start of every Tick and is not part of the
	// snapshot state: the machine reads it right after the Tick (see
	// AcceptedLoads).
	tickAccepts []LoadAccept

	// completions queues accepted classDRAM loads in acceptance order.
	// Latency is uniform within a class, so this is also completion order:
	// completeDue pops due entries instead of scanning every core's buffers.
	// An entry encodes doneAt<<16 | core<<1 | portIdx (0 = HeaderLoad,
	// 1 = BodyLoad), so the not-yet-due check never touches a buffer.
	completions intRing

	// flat is set by New when the configuration has no DRAM banks, no NUMA
	// domains and no cache model. Tick, FastForwardBy and the arbitration
	// loop then take the flat path (commitFlat, drainFlat, acceptCoreFlat),
	// which contains none of the bank, domain, latency-class or cache checks
	// of the general path. Both paths produce the same results on a flat
	// configuration; the package's tests clear flat to check that.
	flat bool

	// Memory hierarchy (NUMA domains and/or the L1/L2 cache model). hier is
	// set when either model is enabled; the flat path never touches any of
	// this state.
	hier      bool
	domains   int
	penalty   int64
	domIlv    int
	domBW     int
	affinity  []int
	domBudget []int       // per-domain per-cycle acceptance budget (domBW > 0)
	winBase   object.Addr // SetLocalWindow range, local to every core
	winLimit  object.Addr // exclusive; 0 means no window

	l1Sets, l1Ways int
	l2Sets, l2Ways int
	mshrs          int
	lineWords      int
	l1             [][]CacheLineState // per core, l1Sets*l1Ways lines
	l2             []CacheLineState   // shared, l2Sets*l2Ways lines
	lruTick        int64
	mshrInUse      int
	stCnt          [cntSlots]uint32 // pending stores per address slot (cache model only)

	// extraComp holds the completion rings of the non-DRAM-local classes,
	// indexed by class-1. Allocated only when hier is set.
	extraComp [numClasses - 1]intRing
}

// CacheLineState is one tag-only line of the L1 or L2 model.
type CacheLineState struct {
	Valid bool
	Tag   int64
	Last  int64 // lruTick at last touch
}

// storeIdx maps a store port to its queue index.
func storeIdx(p Port) int {
	if p == HeaderStore {
		return 0
	}
	return 1
}

// New creates a memory model over the given backing store. The slice is
// shared: untimed writers (the mutator, the workload generators) and the
// timed scheduler see the same words.
func New(data []object.Word, cfg Config) *Memory {
	cfg = cfg.withDefaults()
	m := &Memory{
		data:       data,
		lat:        int64(cfg.Latency + cfg.ExtraLatency),
		bw:         cfg.Bandwidth,
		sqDepth:    cfg.StoreQueueDepth,
		banks:      cfg.Banks,
		bankBusy:   int64(cfg.BankBusy),
		interleave: cfg.BankInterleave,
		domains:    cfg.Domains,
		penalty:    int64(cfg.RemotePenalty),
		domIlv:     cfg.DomainInterleave,
		domBW:      cfg.DomainBandwidth,
		affinity:   cfg.Affinity,
		l1Sets:     cfg.L1Sets,
		l1Ways:     cfg.L1Ways,
		l2Sets:     cfg.L2Sets,
		l2Ways:     cfg.L2Ways,
		mshrs:      cfg.MSHRs,
		lineWords:  cfg.LineWords,
	}
	m.hier = m.domains > 0 || m.l1Sets > 0
	m.flat = !m.hier && m.banks <= 0
	if m.banks > 0 {
		m.busyUntil = make([]int64, m.banks)
	}
	if m.domains > 0 && m.domBW > 0 {
		m.domBudget = make([]int, m.domains)
	}
	if m.l1Sets > 0 {
		m.l2 = make([]CacheLineState, m.l2Sets*m.l2Ways)
	}
	return m
}

// domainOf maps an address to its NUMA domain.
func (m *Memory) domainOf(a object.Addr) int {
	return int(a) / m.domIlv % m.domains
}

// coreDomain returns the domain core ci is affine to.
func (m *Memory) coreDomain(ci int) int {
	if ci < len(m.affinity) {
		return m.affinity[ci]
	}
	return ci % m.domains
}

// effDomain returns the domain core ci's access to addr is served by. An
// address inside the local window — the locality-aware tospace — lives in
// the accessing core's own domain by construction (each core evacuates into
// a region of its domain), so both the latency penalty and the per-domain
// budget use the core's domain for it.
func (m *Memory) effDomain(ci int, addr object.Addr) int {
	if addr >= m.winBase && addr < m.winLimit {
		return m.coreDomain(ci)
	}
	return m.domainOf(addr)
}

// remote reports whether core ci's access to addr crosses domains.
func (m *Memory) remote(ci int, addr object.Addr) bool {
	return m.effDomain(ci, addr) != m.coreDomain(ci)
}

// SetLocalWindow marks [base, limit) as local to every core, modeling
// locality-aware placement of the tospace: each core bump-allocates in a
// region of its own domain, so its copy and scan traffic to the window
// stays local. Call with (0, 0) to clear. No-op unless the NUMA model is
// enabled.
func (m *Memory) SetLocalWindow(base, limit object.Addr) {
	m.winBase, m.winLimit = base, limit
}

// bankOf maps an address to its DRAM bank.
func (m *Memory) bankOf(a object.Addr) int {
	return int(a) / m.interleave % m.banks
}

// bankReady reports whether the bank holding a can accept a request now,
// and marks it busy when claim is set.
func (m *Memory) bankReady(a object.Addr, claim bool) bool {
	if m.banks <= 0 {
		return true
	}
	b := m.bankOf(a)
	if m.busyUntil[b] > m.cycle {
		m.stats.BankConflicts++
		return false
	}
	if claim {
		m.busyUntil[b] = m.cycle + m.bankBusy
	}
	return true
}

// AttachCores sizes the per-core buffer array for n cores and clears all
// buffers. It must be called before the first Tick of a collection cycle.
// Buffer and queue storage is reused across collection cycles of a reused
// machine, so a steady-state mutator run does not allocate here.
func (m *Memory) AttachCores(n int) {
	// In a completed collection every pending store drained, taking its
	// counter slots back to zero. After an aborted one, the non-zero slots
	// count exactly the still-queued and the accepted but uncommitted
	// stores, which are discarded below.
	if m.storeQueued > 0 || m.inflightHead < len(m.inflight) {
		clear(m.hdrCnt[:])
		clear(m.stCnt[:])
	}

	if cap(m.bufs) >= n {
		m.bufs = m.bufs[:n]
		for i := range m.bufs {
			m.bufs[i] = [numPorts]LoadBuffer{}
		}
	} else {
		m.bufs = make([][numPorts]LoadBuffer, n)
	}
	if cap(m.storeQ) >= n {
		m.storeQ = m.storeQ[:n]
	} else {
		m.storeQ = make([][2]storeRing, n)
	}
	for i := range m.storeQ {
		for j := range m.storeQ[i] {
			r := &m.storeQ[i][j]
			if len(r.buf) != m.sqDepth {
				r.buf = make([]StoreReq, m.sqDepth)
			}
			r.head, r.n = 0, 0
		}
	}
	if len(m.waiting) != n {
		m.waiting = make([]uint8, n)
		m.waitMask = make([]uint64, (n+63)/64)
		m.completions.buf = make([]int64, 2*n)
		if m.hier {
			for i := range m.extraComp {
				m.extraComp[i].buf = make([]int64, 2*n)
			}
		}
	} else {
		clear(m.waiting)
		clear(m.waitMask)
	}
	m.completions.head, m.completions.n = 0, 0
	if m.hier {
		for i := range m.extraComp {
			m.extraComp[i].head, m.extraComp[i].n = 0, 0
		}
	}
	if m.l1Sets > 0 {
		// Caches start cold each collection cycle: the main processor owned
		// the hierarchy in between, so no GC-visible line survives.
		if len(m.l1) != n {
			m.l1 = make([][]CacheLineState, n)
			for i := range m.l1 {
				m.l1[i] = make([]CacheLineState, m.l1Sets*m.l1Ways)
			}
		} else {
			for i := range m.l1 {
				clear(m.l1[i])
			}
		}
		clear(m.l2)
		m.lruTick = 0
		m.mshrInUse = 0
	}
	m.inflight = m.inflight[:0]
	m.inflightHead = 0
	m.tickAccepts = m.tickAccepts[:0]
	m.rr = 0
	m.unaccepted = 0
	m.storeQueued = 0
	m.validLoads = 0
	m.acceptedLoads = 0
}

// Size returns the number of words of backing store.
func (m *Memory) Size() int { return len(m.data) }

// Data exposes the backing store for untimed access.
func (m *Memory) Data() []object.Word { return m.data }

// Read performs an untimed read (mutator / verification side).
func (m *Memory) Read(a object.Addr) object.Word { return m.data[a] }

// Write performs an untimed write (mutator / verification side).
func (m *Memory) Write(a object.Addr, w object.Word) { m.data[a] = w }

// Stats returns a copy of the performance counters.
func (m *Memory) Stats() Stats { return m.stats }

// Cycle returns the current scheduler cycle.
func (m *Memory) Cycle() int64 { return m.cycle }

// probe looks line up in a set-associative tag array, touching its LRU
// stamp on a hit.
func (m *Memory) probe(lines []CacheLineState, sets, ways int, line int64) bool {
	way := lines[int(line%int64(sets))*ways:]
	tag := line / int64(sets)
	for i := 0; i < ways; i++ {
		if way[i].Valid && way[i].Tag == tag {
			m.lruTick++
			way[i].Last = m.lruTick
			return true
		}
	}
	return false
}

// fill installs line into a set-associative tag array, evicting the
// least-recently-used way (lowest index on ties, for determinism).
func (m *Memory) fill(lines []CacheLineState, sets, ways int, line int64) {
	way := lines[int(line%int64(sets))*ways:]
	tag := line / int64(sets)
	victim := 0
	for i := 0; i < ways; i++ {
		if way[i].Valid && way[i].Tag == tag {
			victim = i
			break
		}
		if !way[i].Valid {
			if way[victim].Valid {
				victim = i
			}
			continue
		}
		if way[victim].Valid && way[i].Last < way[victim].Last {
			victim = i
		}
	}
	m.lruTick++
	way[victim] = CacheLineState{Valid: true, Tag: tag, Last: m.lruTick}
}

// cacheLookup probes L1 then L2 for core's access to addr, returning the
// hit class. An L2 hit also fills the core's L1 (tag-only, immediate). On a
// full miss no counter changes — the caller counts the miss only once the
// load actually issues, so a port re-probing every cycle while the MSHRs
// are exhausted does not inflate the miss counts.
func (m *Memory) cacheLookup(core int, addr object.Addr) (cls uint8, hit bool) {
	line := int64(addr) / int64(m.lineWords)
	if m.probe(m.l1[core], m.l1Sets, m.l1Ways, line) {
		m.stats.L1Hits++
		return classL1, true
	}
	if m.probe(m.l2, m.l2Sets, m.l2Ways, line) {
		m.stats.L1Misses++
		m.stats.L2Hits++
		m.fill(m.l1[core], m.l1Sets, m.l1Ways, line)
		return classL2, true
	}
	return 0, false
}

// cacheFill installs addr's line in both levels after a miss completes.
func (m *Memory) cacheFill(core int, addr object.Addr) {
	line := int64(addr) / int64(m.lineWords)
	m.fill(m.l2, m.l2Sets, m.l2Ways, line)
	m.fill(m.l1[core], m.l1Sets, m.l1Ways, line)
}

// ring returns the completion ring of a latency class.
func (m *Memory) ring(cls uint8) *intRing {
	if cls == classDRAM {
		return &m.completions
	}
	return &m.extraComp[cls-1]
}

// IssueLoad initiates a load on the given core/port. It reports false if the
// port's buffer is busy, or — under the cache model — if the load misses
// while every MSHR is in use (the core must stall and retry next cycle).
func (m *Memory) IssueLoad(core int, port Port, addr object.Addr) bool {
	if !port.IsLoad() {
		panic("mem: IssueLoad on store port " + port.String())
	}
	b := &m.bufs[core][port]
	if b.Valid {
		return false
	}
	if m.l1Sets > 0 {
		// A pending store to the same address forces the load to memory so
		// it observes the committed value's timing (and, for headers, the
		// comparator array); the tags are not consulted.
		bypass := m.storePending(addr)
		if !bypass {
			if cls, hit := m.cacheLookup(core, addr); hit {
				lat := int64(HitLatencyL1)
				if cls == classL2 {
					lat = HitLatencyL2
				}
				*b = LoadBuffer{Valid: true, Accepted: true, Class: cls, Addr: addr, DoneAt: m.cycle + lat}
				m.validLoads++
				m.acceptedLoads++
				m.ring(cls).push(b.DoneAt<<16 | int64(core)<<1 | int64(port>>1))
				m.stats.TotalRequests++
				return true
			}
		}
		if m.mshrInUse >= m.mshrs {
			m.stats.MSHRFullStalls++
			return false
		}
		if !bypass {
			m.stats.L1Misses++
			m.stats.L2Misses++
		}
		m.mshrInUse++
	}
	*b = LoadBuffer{Valid: true, Addr: addr}
	m.unaccepted++
	m.validLoads++
	m.waiting[core] |= 1 << port
	m.waitMask[core>>6] |= 1 << (core & 63)
	m.stats.TotalRequests++
	return true
}

// AcceptedLoads returns the loads the last Tick accepted from the cores'
// load buffers, in acceptance order. Loads that complete at issue (cache
// hits) are not listed. The slice is reused by the next Tick.
func (m *Memory) AcceptedLoads() []LoadAccept { return m.tickAccepts }

// LoadReady reports whether the load previously issued on core/port has
// completed and its data may be taken.
func (m *Memory) LoadReady(core int, port Port) bool {
	b := &m.bufs[core][port]
	return b.Valid && b.Ready
}

// LoadPending returns the completion cycle of the accepted, not yet
// completed load in core/port's buffer. It reports false when the buffer is
// empty, still awaiting acceptance, or already completed. The machine's
// fast-forward uses this as the core's next possible wake-up event.
func (m *Memory) LoadPending(core int, port Port) (doneAt int64, ok bool) {
	b := &m.bufs[core][port]
	if b.Valid && b.Accepted && !b.Ready {
		return b.DoneAt, true
	}
	return 0, false
}

// PollLoad combines LoadReady, TakeLoad and LoadPending in a single buffer
// access for the machine's per-cycle wait states: when the load has
// completed it is consumed (ok true); otherwise ok is false and doneAt is
// its completion cycle if it has been accepted, 0 while it still awaits
// acceptance.
func (m *Memory) PollLoad(core int, port Port) (w object.Word, doneAt int64, ok bool) {
	b := &m.bufs[core][port]
	if b.Valid && b.Ready {
		w = b.Data
		*b = LoadBuffer{}
		m.validLoads--
		return w, 0, true
	}
	if b.Accepted {
		return 0, b.DoneAt, false
	}
	return 0, 0, false
}

// TakeLoad consumes a completed load and frees the buffer.
func (m *Memory) TakeLoad(core int, port Port) object.Word {
	b := &m.bufs[core][port]
	if !b.Valid || !b.Ready {
		panic("mem: TakeLoad before completion on " + port.String())
	}
	w := b.Data
	*b = LoadBuffer{}
	m.validLoads--
	return w
}

// IssueStore initiates a store on the given core/port. It reports false if
// the port's write-behind queue is full (the core must stall and retry next
// cycle).
func (m *Memory) IssueStore(core int, port Port, addr object.Addr, w object.Word) bool {
	if port.IsLoad() {
		panic("mem: IssueStore on load port " + port.String())
	}
	q := &m.storeQ[core][storeIdx(port)]
	if q.n >= m.sqDepth {
		return false
	}
	m.seq++
	q.push(StoreReq{addr, w, m.seq})
	m.unaccepted++
	m.storeQueued++
	m.waiting[core] |= 1 << port
	m.waitMask[core>>6] |= 1 << (core & 63)
	if port == HeaderStore {
		m.hdrCnt[cntSlot(addr)] += hdrCntQueuedOne
	}
	if m.l1Sets > 0 {
		m.stCnt[cntSlot(addr)]++
	}
	m.stats.TotalRequests++
	return true
}

// StoreBufferFree reports whether a new store can be issued on core/port
// without stalling.
func (m *Memory) StoreBufferFree(core int, port Port) bool {
	return m.storeQ[core][storeIdx(port)].n < m.sqDepth
}

// headerStoreOrderedBefore reports whether a header store to addr with a
// smaller issue sequence number is still waiting in some core's queue. The
// comparator array delays a later header store to the same address until the
// earlier one has been accepted, so that same-address header stores commit
// in issue order. The algorithm has a single writer for every header except
// the tospace gray/blacken pair: with a header-FIFO hit, the scanning core
// can issue the blackening store while the evacuating core's gray-header
// store is still buffered, and without this rule the gray header could
// commit last.
func (m *Memory) headerStoreOrderedBefore(addr object.Addr, seq int64) bool {
	if m.hdrCnt[cntSlot(addr)]&hdrCntQueuedMask < 2 {
		return false // the probe itself is the only queued header store to its slot
	}
	for i, w := range m.waiting {
		if w&(1<<HeaderStore) == 0 {
			continue // waiting bit mirrors a non-empty header queue
		}
		q := &m.storeQ[i][0]
		for j := 0; j < q.n; j++ {
			if s := q.at(j); s.Addr == addr && s.Seq < seq {
				return true
			}
		}
	}
	return false
}

// headerStorePending reports whether a header store to addr is pending,
// either waiting in a store buffer or accepted but not yet committed. While
// it is, the comparator array delays header loads from the same address.
func (m *Memory) headerStorePending(addr object.Addr) bool {
	c := m.hdrCnt[cntSlot(addr)]
	if c == 0 {
		return false
	}
	return c&hdrCntQueuedMask != 0 && m.queuedStore(addr, 1<<HeaderStore) ||
		c>>32 != 0 && m.inflightStore(addr, true)
}

// storePending reports whether any store to addr is pending, queued or in
// flight: the cache model's load bypass.
func (m *Memory) storePending(addr object.Addr) bool {
	if m.stCnt[cntSlot(addr)] == 0 {
		return false
	}
	return m.queuedStore(addr, 1<<HeaderStore|1<<BodyStore) || m.inflightStore(addr, false)
}

// queuedStore reports whether a store to addr waits in the write-behind
// queue of some core, on the store ports in the waiting-bit mask ports.
func (m *Memory) queuedStore(addr object.Addr, ports uint8) bool {
	for i, w := range m.waiting {
		for w &= ports; w != 0; w &= w - 1 {
			q := &m.storeQ[i][storeIdx(Port(bits.TrailingZeros8(w)))]
			for j := 0; j < q.n; j++ {
				if q.at(j).Addr == addr {
					return true
				}
			}
		}
	}
	return false
}

// inflightStore reports whether a store to addr (a header store, when
// header is set) has been accepted but not yet committed.
func (m *Memory) inflightStore(addr object.Addr, header bool) bool {
	for i := m.inflightHead; i < len(m.inflight); i++ {
		if s := &m.inflight[i]; s.Addr == addr && (s.Header || !header) {
			return true
		}
	}
	return false
}

// commitDue commits the prefix of in-flight stores whose latency has
// elapsed. The list is ordered by completion cycle; committed entries are
// skipped via a head index, and the consumed prefix is compacted away only
// once it dominates the backing array (amortized O(1) per commit).
func (m *Memory) commitDue() {
	h := m.inflightHead
	if h == len(m.inflight) || m.inflight[h].DoneAt > m.cycle {
		return
	}
	for h < len(m.inflight) && m.inflight[h].DoneAt <= m.cycle {
		s := &m.inflight[h]
		m.data[s.Addr] = s.Data
		if s.Header {
			m.hdrCnt[cntSlot(s.Addr)] -= hdrCntInflightOne
		}
		if m.l1Sets > 0 {
			m.stCnt[cntSlot(s.Addr)]--
		}
		h++
	}
	m.retireInflight(h)
}

// retireInflight moves the inflight head to h, past the entries just
// committed.
func (m *Memory) retireInflight(h int) {
	if h == len(m.inflight) {
		m.inflight = m.inflight[:0]
		h = 0
	} else if h >= 1024 && 2*h >= len(m.inflight) {
		n := copy(m.inflight, m.inflight[h:])
		m.inflight = m.inflight[:n]
		h = 0
	}
	m.inflightHead = h
}

// completeDue marks accepted loads whose latency has elapsed as ready,
// capturing the loaded word after all due stores have committed. Accepted
// loads complete in acceptance order within each latency class (the latency
// is uniform per class), so the due prefix of each class's completion queue
// identifies them without scanning buffers. Completions of different
// classes falling on the same cycle are interchangeable: every capture
// happens after the cycle's commits, so drain order cannot change data.
func (m *Memory) completeDue() {
	m.drainRing(&m.completions)
	if m.hier {
		for i := range m.extraComp {
			m.drainRing(&m.extraComp[i])
		}
	}
}

func (m *Memory) drainRing(r *intRing) {
	for r.n > 0 {
		e := r.front()
		if e>>16 > m.cycle {
			return
		}
		ci := int(e >> 1 & 0x7fff)
		b := &m.bufs[ci][Port(e&1)<<1] // portIdx 0 -> HeaderLoad(0), 1 -> BodyLoad(2)
		b.Data = m.data[b.Addr]
		b.Ready = true
		m.acceptedLoads--
		if m.l1Sets > 0 && b.Class < classL1 {
			// A completed miss releases its MSHR and fills both levels.
			m.mshrInUse--
			m.cacheFill(ci, b.Addr)
		}
		r.pop()
	}
}

// Tick advances the memory system by one core clock cycle: commit due
// stores, complete due loads, then accept up to Bandwidth new requests.
func (m *Memory) Tick() {
	m.cycle++
	m.tickAccepts = m.tickAccepts[:0]

	m.settle()

	pending := len(m.inflight) - m.inflightHead + m.storeQueued + m.validLoads
	if pending > m.stats.PeakPending {
		m.stats.PeakPending = pending
	}

	// Accept new requests, round-robin over cores for fairness, ports in
	// fixed order within a core.
	n := len(m.bufs)
	if n == 0 {
		return
	}
	if m.unaccepted > 0 {
		m.accept(n)
	}
	m.rr++
	if m.rr >= n {
		m.rr = 0
	}
}

// settle commits the stores and completes the loads that are due at the
// current cycle, on the path New chose.
func (m *Memory) settle() {
	if m.flat {
		m.commitFlat()
		m.drainFlat()
		return
	}
	m.commitDue()
	m.completeDue()
}

// commitFlat is commitDue without the cache model's per-address store
// counts.
func (m *Memory) commitFlat() {
	h := m.inflightHead
	if h == len(m.inflight) || m.inflight[h].DoneAt > m.cycle {
		return
	}
	for h < len(m.inflight) && m.inflight[h].DoneAt <= m.cycle {
		s := &m.inflight[h]
		m.data[s.Addr] = s.Data
		if s.Header {
			m.hdrCnt[cntSlot(s.Addr)] -= hdrCntInflightOne
		}
		h++
	}
	m.retireInflight(h)
}

// drainFlat is completeDue with only the DRAM completion ring and no MSHR
// or cache fill on completion.
func (m *Memory) drainFlat() {
	r := &m.completions
	for r.n > 0 {
		e := r.front()
		if e>>16 > m.cycle {
			return
		}
		b := &m.bufs[e>>1&0x7fff][Port(e&1)<<1]
		b.Data = m.data[b.Addr]
		b.Ready = true
		m.acceptedLoads--
		r.pop()
	}
}

// accept runs the arbitration loop for one cycle, admitting up to Bandwidth
// waiting requests.
func (m *Memory) accept(n int) {
	budget := m.bw
	if m.domBudget != nil {
		for i := range m.domBudget {
			m.domBudget[i] = m.domBW
		}
	}
	// Visit waiting cores in round-robin order starting at rr — the ranges
	// [rr, n) then [0, rr) — jumping between set bits of waitMask rather
	// than scanning every core.
	lo, hi := m.rr, n
	for pass := 0; pass < 2; pass++ {
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			word := m.waitMask[wi]
			if base := wi << 6; base < lo {
				word &= ^uint64(0) << (lo - base)
			}
			if rem := hi - wi<<6; rem < 64 {
				word &= 1<<rem - 1
			}
			for ; word != 0; word &= word - 1 {
				ci := wi<<6 + bits.TrailingZeros64(word)
				if m.flat {
					budget = m.acceptCoreFlat(ci, budget)
				} else {
					budget = m.acceptCore(ci, budget)
				}
				if budget == 0 || m.unaccepted == 0 {
					goto tally
				}
			}
		}
		lo, hi = 0, m.rr
	}
tally:
	if budget < m.bw {
		m.stats.BusyCycles++
	}
	if budget == 0 {
		m.stats.SaturatedCyc++
		if m.unaccepted > 0 {
			m.stats.RejectedByBW++
		}
	}
}

// acceptCore tries to accept core ci's waiting requests, ports in fixed
// order, spending one unit of budget per acceptance. It returns the budget
// left.
func (m *Memory) acceptCore(ci int, budget int) int {
	// Jump between waiting ports; ascending bit order is the fixed port
	// priority. The local copy also skips requests whose bit is cleared
	// mid-loop (each port is attempted at most once per cycle either way).
	for w := m.waiting[ci]; w != 0 && budget > 0; w &= w - 1 {
		p := Port(bits.TrailingZeros8(w))
		if p.IsLoad() {
			b := &m.bufs[ci][p]
			if p == HeaderLoad && m.headerStorePending(b.Addr) {
				m.stats.OrderDelays++
				continue
			}
			if !m.bankReady(b.Addr, false) {
				continue
			}
			if !m.domainReady(ci, b.Addr, false) {
				continue
			}
			m.bankReady(b.Addr, true)
			m.domainReady(ci, b.Addr, true)
			b.Accepted = true
			b.DoneAt = m.cycle + m.accessLatency(ci, b.Addr, &b.Class)
			m.unaccepted--
			m.acceptedLoads++
			m.clearWaiting(ci, p)
			m.ring(b.Class).push(b.DoneAt<<16 | int64(ci)<<1 | int64(p>>1)) // HeaderLoad=0, BodyLoad=1
			m.tickAccepts = append(m.tickAccepts, LoadAccept{ci, p, b.DoneAt})
		} else {
			q := &m.storeQ[ci][storeIdx(p)]
			s := q.front()
			if p == HeaderStore && m.headerStoreOrderedBefore(s.Addr, s.Seq) {
				m.stats.OrderDelays++
				continue
			}
			if !m.bankReady(s.Addr, false) {
				continue
			}
			if !m.domainReady(ci, s.Addr, false) {
				continue
			}
			m.bankReady(s.Addr, true)
			m.domainReady(ci, s.Addr, true)
			var cls uint8
			st := InflightStore{
				Addr:   s.Addr,
				Data:   s.Data,
				Header: p.IsHeader(),
				DoneAt: m.cycle + m.accessLatency(ci, s.Addr, &cls),
			}
			if m.hier {
				m.insertInflight(st)
			} else {
				m.inflight = append(m.inflight, st)
			}
			if p == HeaderStore {
				// The queued store becomes an accepted, uncommitted one.
				m.hdrCnt[cntSlot(s.Addr)] += hdrCntInflightOne - hdrCntQueuedOne
			}
			q.pop()
			if q.n == 0 {
				m.clearWaiting(ci, p)
			}
			m.unaccepted--
			m.storeQueued--
		}
		m.stats.Accepted[p]++
		budget--
	}
	return budget
}

// acceptCoreFlat is acceptCore on a flat configuration: every request is
// a DRAM access of uniform latency, with no bank or domain to wait for.
func (m *Memory) acceptCoreFlat(ci int, budget int) int {
	for w := m.waiting[ci]; w != 0 && budget > 0; w &= w - 1 {
		p := Port(bits.TrailingZeros8(w))
		if p.IsLoad() {
			b := &m.bufs[ci][p]
			if p == HeaderLoad && m.headerStorePending(b.Addr) {
				m.stats.OrderDelays++
				continue
			}
			b.Accepted = true
			b.DoneAt = m.cycle + m.lat
			m.unaccepted--
			m.acceptedLoads++
			m.clearWaiting(ci, p)
			m.completions.push(b.DoneAt<<16 | int64(ci)<<1 | int64(p>>1)) // HeaderLoad=0, BodyLoad=1
			m.tickAccepts = append(m.tickAccepts, LoadAccept{ci, p, b.DoneAt})
		} else {
			q := &m.storeQ[ci][storeIdx(p)]
			s := q.front()
			if p == HeaderStore {
				if m.headerStoreOrderedBefore(s.Addr, s.Seq) {
					m.stats.OrderDelays++
					continue
				}
				// The queued store becomes an accepted, uncommitted one.
				m.hdrCnt[cntSlot(s.Addr)] += hdrCntInflightOne - hdrCntQueuedOne
			}
			m.inflight = append(m.inflight, InflightStore{
				Addr:   s.Addr,
				Data:   s.Data,
				Header: p == HeaderStore,
				DoneAt: m.cycle + m.lat,
			})
			q.pop()
			if q.n == 0 {
				m.clearWaiting(ci, p)
			}
			m.unaccepted--
			m.storeQueued--
		}
		m.stats.Accepted[p]++
		budget--
	}
	return budget
}

// accessLatency returns the DRAM latency of core ci's access to addr and
// records its completion class, counting the NUMA local/remote split.
func (m *Memory) accessLatency(ci int, addr object.Addr, cls *uint8) int64 {
	if m.domains <= 0 {
		*cls = classDRAM
		return m.lat
	}
	if m.remote(ci, addr) {
		m.stats.RemoteAccesses++
		*cls = classRemote
		return m.lat + m.penalty
	}
	m.stats.LocalAccesses++
	*cls = classDRAM
	return m.lat
}

// domainReady reports whether the domain serving core ci's access to addr
// has per-cycle acceptance budget left, consuming one unit when claim is
// set.
func (m *Memory) domainReady(ci int, addr object.Addr, claim bool) bool {
	if m.domBudget == nil {
		return true
	}
	d := m.effDomain(ci, addr)
	if d >= len(m.domBudget) {
		// Out-of-range affinity override: treat as uncapped.
		return true
	}
	if m.domBudget[d] <= 0 {
		if !claim {
			m.stats.DomainConflicts++
		}
		return false
	}
	if claim {
		m.domBudget[d]--
	}
	return true
}

// insertInflight places an accepted store into the inflight list keeping it
// ordered by completion cycle (commitDue strips a due prefix). Insertion is
// stable — equal completion cycles commit in acceptance order — and a later
// same-address header store is clamped to commit no earlier than an
// in-flight one, preserving the comparator array's issue-order guarantee
// when domain penalties give the two stores different latencies.
func (m *Memory) insertInflight(st InflightStore) {
	if st.Header && m.hdrCnt[cntSlot(st.Addr)]>>32 > 0 {
		for i := m.inflightHead; i < len(m.inflight); i++ {
			if f := &m.inflight[i]; f.Header && f.Addr == st.Addr && f.DoneAt > st.DoneAt {
				st.DoneAt = f.DoneAt
			}
		}
	}
	i := len(m.inflight)
	m.inflight = append(m.inflight, st)
	for i > m.inflightHead && m.inflight[i-1].DoneAt > st.DoneAt {
		m.inflight[i] = m.inflight[i-1]
		i--
	}
	m.inflight[i] = st
}

// clearWaiting clears core ci's waiting bit for port p, dropping the core
// from waitMask when nothing else is waiting on it.
func (m *Memory) clearWaiting(ci int, p Port) {
	if m.waiting[ci] &= ^(uint8(1) << p); m.waiting[ci] == 0 {
		m.waitMask[ci>>6] &^= 1 << (ci & 63)
	}
}

// Quiescent reports whether no issued request is still awaiting acceptance
// by the controller. While quiescent, a Tick accepts nothing and changes no
// statistic — the precondition for fast-forwarding over it.
func (m *Memory) Quiescent() bool { return m.unaccepted == 0 }

// LastInflightDoneAt returns the commit cycle of the last in-flight store —
// the cycle at which the scheduler drains, provided nothing new is issued —
// or 0 when no store is in flight.
func (m *Memory) LastInflightDoneAt() int64 {
	if m.inflightHead == len(m.inflight) {
		return 0
	}
	return m.inflight[len(m.inflight)-1].DoneAt
}

// FastForwardBy advances the scheduler delta cycles in one jump, applying
// exactly the cumulative effect the skipped Ticks would have had: the clock
// and the round-robin arbitration pointer advance, due stores commit (in
// order, before any load capture), and due loads complete. The caller must
// ensure the scheduler is Quiescent — with nothing awaiting acceptance, the
// skipped ticks perform no arbitration and touch no counter, so the
// statistics of a fast-forwarded run are bit-identical to the stepped run.
func (m *Memory) FastForwardBy(delta int64) {
	if delta <= 0 {
		return
	}
	m.cycle += delta
	if n := len(m.bufs); n > 0 {
		m.rr = int((int64(m.rr) + delta) % int64(n))
	}
	m.settle()
}

// Drained reports whether every buffer and store queue is empty and every
// accepted store has committed. The coprocessor flushes all buffers at the
// end of a collection cycle before the main processor is restarted.
func (m *Memory) Drained() bool {
	return m.inflightHead == len(m.inflight) && m.storeQueued == 0 && m.validLoads == 0
}
