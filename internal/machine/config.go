// Package machine implements the multi-core garbage collection coprocessor
// of the paper (Sections IV and V) as a deterministic, cycle-stepped
// simulator.
//
// The machine consists of N microprogrammed cores, a synchronization block
// (internal/syncblock), a memory access scheduler (internal/mem) and an
// on-chip header FIFO. Each simulated clock cycle the machine steps every
// core once, in ascending core order (which realizes the SB's static
// prioritization scheme), and then ticks the memory system. Each core is an
// explicit state machine executing the fine-grained parallel variant of
// Cheney's algorithm from Section IV; every cycle in which a core cannot
// make progress is attributed to one of the stall causes reported in the
// paper's Table II.
package machine

import (
	"fmt"

	"hwgc/internal/mem"
)

// Defaults for zero-valued Config fields. Latency and bandwidth defaults
// mirror the prototype: the DDR-SDRAM runs at at least four times the 25 MHz
// core clock, and the access latency is "in the range of a few clock
// cycles".
const (
	DefaultCores          = 1
	DefaultFIFOCapacity   = 32 * 1024 // the prototype's header FIFO holds up to 32k entries
	DefaultStartupCycles  = 64        // stop main processor, flush its caches, read registers
	DefaultShutdownCycles = 32        // drain store buffers, restart main processor
	MaxCores              = 64
	MaxNUMADomains        = 64

	// DefaultMutatorPeriod is the inter-operation idle period of the built-in
	// churn mutator when MutatorOps is set but MutatorPeriod is not.
	DefaultMutatorPeriod = 4
)

// BarrierMode selects the write barrier the concurrent mutator's pointer
// stores go through. The wait-until-black *access* barrier (the paper's
// hardware read barrier analogue) is always active in concurrent mode;
// BarrierMode adds the *write* barrier of a concurrent-marking collector on
// top, with cycle-accurate costs through the memory scheduler.
type BarrierMode string

const (
	// BarrierNone performs the pointer store directly (the default; the
	// wait-until-black access barrier alone keeps the heap consistent).
	BarrierNone BarrierMode = ""
	// BarrierSATB is the Yuasa-style snapshot-at-the-beginning deletion
	// barrier: before a pointer slot is overwritten its old value is loaded
	// and, if non-nil, the old target is shaded (a header touch), so no
	// object reachable at the start of marking is lost.
	BarrierSATB BarrierMode = "satb"
	// BarrierIncUpdate is the Dijkstra-style incremental-update insertion
	// barrier: the *new* target of every pointer store is shaded.
	BarrierIncUpdate BarrierMode = "incupdate"
)

// barrierModeValid reports whether b names a known write barrier.
func barrierModeValid(b BarrierMode) bool {
	switch b {
	case BarrierNone, BarrierSATB, BarrierIncUpdate:
		return true
	}
	return false
}

// NUMAPlacement selects how the collector places the tospace relative to
// the NUMA domains. It only takes effect when NUMADomains is positive.
type NUMAPlacement string

const (
	// PlacementNaive leaves the tospace interleaved over the domains like
	// the rest of the address space (the default; "naive" normalizes to "").
	PlacementNaive NUMAPlacement = ""
	// PlacementLocal models locality-aware placement: every core evacuates
	// into a region of its own domain, so tospace traffic never pays the
	// remote penalty.
	PlacementLocal NUMAPlacement = "local"
)

// numaPlacementValid reports whether p names a known placement policy.
func numaPlacementValid(p NUMAPlacement) bool {
	return p == PlacementNaive || p == PlacementLocal
}

// Config parameterizes a coprocessor instance.
type Config struct {
	// Cores is the number of GC cores (the prototype supports up to 16; we
	// allow up to MaxCores for extension experiments). Default 1 — which,
	// because synchronization is free when uncontended, performs like the
	// original sequential implementation of Cheney's algorithm (Section
	// VI-B).
	Cores int

	// MemLatency is the base memory access latency in cycles (default 3).
	MemLatency int
	// ExtraMemLatency is added to every access; the paper's Figure 6 adds
	// an artificial 20 cycles.
	ExtraMemLatency int
	// MemBandwidth is the number of memory requests accepted per core clock
	// cycle (default 6).
	MemBandwidth int
	// MemStoreQueueDepth is the write-behind depth of each store port
	// (default 2).
	MemStoreQueueDepth int
	// MemBanks, when positive, enables the DRAM bank model: requests to a
	// busy bank are deferred even when bandwidth is available. Zero keeps
	// the calibrated bandwidth/latency model.
	MemBanks int
	// MemBankBusy is the per-bank busy time per request (default 2).
	MemBankBusy int

	// FIFOCapacity is the number of entries in the on-chip header FIFO
	// (default 32768, the prototype's maximum). A capacity of 0 selects the
	// default; use 1 to effectively disable the FIFO in ablations
	// (DisableFIFO turns it off entirely).
	FIFOCapacity int
	// DisableFIFO turns the header FIFO off; every gray tospace header is
	// then read from memory inside the scan critical section.
	DisableFIFO bool

	// OptUnlockedMarkRead enables the optimization proposed in Section VI-B
	// for javac: read the mark bit with an unlocked header load first and
	// attempt a locking read only if the mark bit is cleared.
	OptUnlockedMarkRead bool

	// HeaderCacheLines enables the on-chip header cache proposed in the
	// paper's conclusions (Section VII) with the given number of lines
	// (rounded up to a power of two). Zero disables the cache.
	HeaderCacheLines int

	// StrideWords enables sub-object work distribution, the other Section
	// VII proposal: the scan critical section dispatches at most this many
	// body words of the object at scan instead of the whole object, so
	// several cores can share one large object. Zero keeps the paper's
	// object-level granularity.
	StrideWords int

	// StartupCycles and ShutdownCycles model Core 1's coordination with the
	// main processor (Section V-E): stopping it and flushing its caches at
	// the start, draining the GC store buffers and restarting it at the
	// end. Zero selects the default; a negative value means none, and
	// WithDefaults writes every negative value as -1 so that canonicalizing
	// twice gives the same config as canonicalizing once.
	StartupCycles  int64
	ShutdownCycles int64

	// MaxCycles aborts the simulation with an error if a collection cycle
	// exceeds this many clock cycles (a livelock guard for tests). Zero
	// selects a generous bound derived from the heap size.
	MaxCycles int64

	// BarrierMode selects the concurrent mutator's write barrier ("",
	// "satb" or "incupdate"; "none" normalizes to ""). It only takes effect
	// when a mutator is attached — via MutatorOps, or the test-only scripted
	// driver of the machine package's tests.
	//
	// The new fields carry `omitempty` so the canonical JSON encoding of
	// every pre-existing configuration — and with it every content-derived
	// cache key — is unchanged.
	BarrierMode BarrierMode `json:",omitempty"`

	// MutatorOps, when positive, attaches the built-in deterministic churn
	// mutator to the collection: Collect then runs concurrently with a
	// synthetic application issuing at most MutatorOps operations. It is
	// the one concurrent-collection path, reachable from the canonical
	// request codec so the whole serving stack (cache, jobs, sweeps, replay,
	// snapshots) can run concurrent scenarios.
	MutatorOps int64 `json:",omitempty"`
	// MutatorAllocs caps the churn mutator's concurrent allocations
	// (default 500 when MutatorOps is set).
	MutatorAllocs int64 `json:",omitempty"`
	// MutatorSeed seeds the churn mutator's operation stream (default 1).
	MutatorSeed int64 `json:",omitempty"`
	// MutatorPeriod is the idle period between mutator operations, i.e. the
	// mutator's speed relative to the GC clock (default 4).
	MutatorPeriod int `json:",omitempty"`

	// NUMADomains, when positive, enables the NUMA memory model: the address
	// space is interleaved over this many domains at NUMAInterleave-word
	// granularity, each core is affine to domain (core % NUMADomains), and a
	// cross-domain access pays NUMARemotePenalty extra cycles. Like the
	// mutator knobs, all memory-hierarchy fields carry omitempty and are
	// zeroed when their model is disabled, so pre-existing flat
	// configurations canonicalize — and cache — identically.
	NUMADomains int `json:",omitempty"`
	// NUMARemotePenalty is the extra latency of a cross-domain access
	// (default 8).
	NUMARemotePenalty int `json:",omitempty"`
	// NUMAInterleave is the domain interleaving granularity in words
	// (default 64).
	NUMAInterleave int `json:",omitempty"`
	// NUMABandwidth, when positive, caps the requests each domain accepts
	// per cycle on top of the global MemBandwidth. Zero leaves domains
	// uncapped.
	NUMABandwidth int `json:",omitempty"`
	// NUMAPlacement selects naive ("", interleaved) or locality-aware
	// ("local") tospace placement; "naive" normalizes to "".
	NUMAPlacement NUMAPlacement `json:",omitempty"`

	// L1Sets, when positive, enables the private-L1/shared-L2 cache model in
	// front of the memory scheduler: L1Sets×L1Ways lines per core, an
	// L2Sets×L2Ways shared L2 (default 4×L1Sets sets), MSHRs miss-status
	// registers (default 8) and CacheLineWords words per line (default 4). A
	// hit completes in 1–2 cycles without consuming memory bandwidth; a miss
	// allocates an MSHR and goes to DRAM; MSHR exhaustion stalls the issuing
	// port. The model is tag-only and changes timing, never values.
	L1Sets int `json:",omitempty"`
	// L1Ways is the L1 associativity (default 2).
	L1Ways int `json:",omitempty"`
	// L2Sets is the number of L2 sets (default 4×L1Sets).
	L2Sets int `json:",omitempty"`
	// L2Ways is the L2 associativity (default 4).
	L2Ways int `json:",omitempty"`
	// MSHRs is the number of outstanding cache misses (default 8).
	MSHRs int `json:",omitempty"`
	// CacheLineWords is the cache line size in words (default 4).
	CacheLineWords int `json:",omitempty"`
}

// WithDefaults returns c with zero values replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Cores == 0 {
		c.Cores = DefaultCores
	}
	if c.FIFOCapacity == 0 {
		c.FIFOCapacity = DefaultFIFOCapacity
	}
	if c.StartupCycles == 0 {
		c.StartupCycles = DefaultStartupCycles
	}
	if c.StartupCycles < 0 {
		c.StartupCycles = -1
	}
	if c.ShutdownCycles == 0 {
		c.ShutdownCycles = DefaultShutdownCycles
	}
	if c.ShutdownCycles < 0 {
		c.ShutdownCycles = -1
	}
	if c.BarrierMode == "none" {
		c.BarrierMode = BarrierNone
	}
	if c.MutatorOps > 0 {
		if c.MutatorAllocs == 0 {
			c.MutatorAllocs = 500
		}
		if c.MutatorSeed == 0 {
			c.MutatorSeed = 1
		}
		if c.MutatorPeriod == 0 {
			c.MutatorPeriod = DefaultMutatorPeriod
		}
	} else {
		// Without a built-in mutator the sub-parameters are inert; zero them
		// so configurations differing only in dead knobs canonicalize (and
		// cache) identically. BarrierMode is kept: the test-only scripted
		// driver uses it without setting MutatorOps, and zeroing it would
		// move existing content keys.
		c.MutatorOps = 0
		c.MutatorAllocs = 0
		c.MutatorSeed = 0
		c.MutatorPeriod = 0
	}
	if c.NUMAPlacement == "naive" {
		c.NUMAPlacement = PlacementNaive
	}
	if c.NUMADomains > 0 {
		if c.NUMARemotePenalty == 0 {
			c.NUMARemotePenalty = mem.DefaultRemotePenalty
		}
		if c.NUMAInterleave == 0 {
			c.NUMAInterleave = mem.DefaultDomainInterleave
		}
	} else {
		// Dead knobs of a disabled model are zeroed, like the mutator's.
		c.NUMADomains = 0
		c.NUMARemotePenalty = 0
		c.NUMAInterleave = 0
		c.NUMABandwidth = 0
		c.NUMAPlacement = PlacementNaive
	}
	if c.L1Sets > 0 {
		if c.L1Ways == 0 {
			c.L1Ways = mem.DefaultL1Ways
		}
		if c.L2Sets == 0 {
			c.L2Sets = 4 * c.L1Sets
		}
		if c.L2Ways == 0 {
			c.L2Ways = mem.DefaultL2Ways
		}
		if c.MSHRs == 0 {
			c.MSHRs = mem.DefaultMSHRs
		}
		if c.CacheLineWords == 0 {
			c.CacheLineWords = mem.DefaultLineWords
		}
	} else {
		c.L1Sets = 0
		c.L1Ways = 0
		c.L2Sets = 0
		c.L2Ways = 0
		c.MSHRs = 0
		c.CacheLineWords = 0
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > MaxCores {
		return fmt.Errorf("machine: Cores must be in [1,%d], got %d", MaxCores, c.Cores)
	}
	if c.MemLatency < 0 || c.ExtraMemLatency < 0 || c.MemBandwidth < 0 {
		return fmt.Errorf("machine: negative memory parameter")
	}
	if c.FIFOCapacity < 0 {
		return fmt.Errorf("machine: negative FIFO capacity")
	}
	if c.HeaderCacheLines < 0 {
		return fmt.Errorf("machine: negative header cache size")
	}
	if c.StrideWords < 0 {
		return fmt.Errorf("machine: negative stride size")
	}
	if !barrierModeValid(c.BarrierMode) {
		return fmt.Errorf("machine: unknown barrier mode %q (have \"\", %q, %q)",
			c.BarrierMode, BarrierSATB, BarrierIncUpdate)
	}
	if c.MutatorOps < 0 || c.MutatorAllocs < 0 || c.MutatorPeriod < 0 {
		return fmt.Errorf("machine: negative mutator parameter")
	}
	if c.NUMADomains < 0 || c.NUMARemotePenalty < 0 || c.NUMAInterleave < 0 || c.NUMABandwidth < 0 {
		return fmt.Errorf("machine: negative NUMA parameter")
	}
	if c.NUMADomains > MaxNUMADomains {
		return fmt.Errorf("machine: NUMADomains must be at most %d, got %d", MaxNUMADomains, c.NUMADomains)
	}
	if !numaPlacementValid(c.NUMAPlacement) {
		return fmt.Errorf("machine: unknown NUMA placement %q (have \"\" or \"naive\", %q)",
			c.NUMAPlacement, PlacementLocal)
	}
	if c.L1Sets < 0 || c.L1Ways < 0 || c.L2Sets < 0 || c.L2Ways < 0 || c.MSHRs < 0 || c.CacheLineWords < 0 {
		return fmt.Errorf("machine: negative cache parameter")
	}
	return nil
}
