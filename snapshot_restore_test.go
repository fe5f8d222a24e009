package hwgc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// These tests assert the checkpoint/restore contract over the same matrix
// as the fast-forward determinism suite: a run restored from a snapshot
// taken at ANY cycle finishes with Stats and heap image bit-identical to
// the uninterrupted run.

// runUninterrupted collects a fresh workload heap end to end.
func runUninterrupted(t *testing.T, bench string, cfg Config) (Stats, *Heap) {
	t.Helper()
	h, err := BuildWorkload(bench, 1, 42)
	if err != nil {
		t.Fatalf("BuildWorkload(%s): %v", bench, err)
	}
	st, err := Collect(h, cfg)
	if err != nil {
		t.Fatalf("Collect(%s): %v", bench, err)
	}
	return st, h
}

// checkRestoredRun suspends a fresh run at checkpointCycle, round-trips it
// through snapshot bytes, and checks the resumed outcome against the
// uninterrupted reference.
func checkRestoredRun(t *testing.T, bench string, cfg Config, checkpointCycle int64, want Stats, wantHeap *Heap) {
	t.Helper()
	h, err := BuildWorkload(bench, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	col, err := StartCollection(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done, err := col.StepCycles(checkpointCycle)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatalf("collection finished before checkpoint cycle %d", checkpointCycle)
	}
	snap, err := col.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ResumeCollection(snap)
	if err != nil {
		t.Fatalf("restore at cycle %d: %v", checkpointCycle, err)
	}
	got, err := restored.Finish()
	if err != nil {
		t.Fatalf("resume from cycle %d: %v", checkpointCycle, err)
	}
	if diffs := want.DiffFields(&got); len(diffs) > 0 {
		t.Errorf("restored from cycle %d: stats differ: %v", checkpointCycle, diffs)
	}
	gh := restored.Heap()
	if !reflect.DeepEqual(wantHeap.Mem(), gh.Mem()) {
		t.Errorf("restored from cycle %d: heap images differ", checkpointCycle)
	}
	if !reflect.DeepEqual(wantHeap.Roots(), gh.Roots()) {
		t.Errorf("restored from cycle %d: root sets differ", checkpointCycle)
	}
	if wantHeap.AllocPtr() != gh.AllocPtr() {
		t.Errorf("restored from cycle %d: alloc pointer %d != %d", checkpointCycle, gh.AllocPtr(), wantHeap.AllocPtr())
	}
}

// checkpointCycles picks deterministic pseudo-random checkpoint cycles
// strictly inside the collection's cycle loop.
func checkpointCycles(rng *rand.Rand, loopCycles int64, n int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, 1+rng.Int63n(loopCycles-1))
	}
	return out
}

// TestSnapshotRestoreMatrix sweeps every workload over the paper's core
// counts with random checkpoint cycles.
func TestSnapshotRestoreMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bench := range Workloads() {
		for _, cores := range PaperCoreCounts {
			bench, cores := bench, cores
			seed := rng.Int63()
			t.Run(fmt.Sprintf("%s/cores=%d", bench, cores), func(t *testing.T) {
				t.Parallel()
				if testing.Short() && cores != 1 && cores != 16 {
					t.Skip("short mode: endpoints only")
				}
				cfg := Config{Cores: cores}
				want, wantHeap := runUninterrupted(t, bench, cfg)
				loop := want.Cycles - cfg.WithDefaults().ShutdownCycles
				rng := rand.New(rand.NewSource(seed))
				n := 3
				if testing.Short() {
					n = 1
				}
				for _, at := range checkpointCycles(rng, loop, n) {
					checkRestoredRun(t, bench, cfg, at, want, wantHeap)
				}
			})
		}
	}
}

// TestSnapshotRestoreConfigVariants exercises the config variants whose
// extra machinery lives in the snapshot (stride table, header cache, bank
// timers, FIFO edge sizes, long latency windows).
func TestSnapshotRestoreConfigVariants(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"extra-latency", Config{ExtraMemLatency: 20}},
		{"stride", Config{StrideWords: 8}},
		{"header-cache", Config{HeaderCacheLines: 16}},
		{"tiny-fifo", Config{FIFOCapacity: 2}},
		{"no-fifo", Config{DisableFIFO: true}},
		{"banks", Config{MemBanks: 4}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, v := range variants {
		for _, cores := range []int{1, 4, 16} {
			v, cores := v, cores
			seed := rng.Int63()
			t.Run(fmt.Sprintf("%s/cores=%d", v.name, cores), func(t *testing.T) {
				t.Parallel()
				cfg := v.cfg
				cfg.Cores = cores
				want, wantHeap := runUninterrupted(t, "javacc", cfg)
				loop := want.Cycles - cfg.WithDefaults().ShutdownCycles
				rng := rand.New(rand.NewSource(seed))
				for _, at := range checkpointCycles(rng, loop, 2) {
					checkRestoredRun(t, "javacc", cfg, at, want, wantHeap)
				}
			})
		}
	}
}

// TestSnapshotRestoreBarrierModes extends the restore matrix to the
// concurrent-collection extension: a run with the churn mutator attached
// carries extra machine state in the snapshot (mutator PRNG, op cursor,
// barrier counters, SATB shade log attribution), all of which must survive
// a checkpoint taken at an arbitrary cycle.
func TestSnapshotRestoreBarrierModes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mode := range []BarrierMode{BarrierNone, BarrierSATB, BarrierIncUpdate} {
		for _, cores := range []int{1, 4, 16} {
			mode, cores := mode, cores
			seed := rng.Int63()
			name := string(mode)
			if name == "" {
				name = "none"
			}
			t.Run(fmt.Sprintf("%s/cores=%d", name, cores), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Cores: cores, MutatorOps: 1 << 40, BarrierMode: mode}
				want, wantHeap := runUninterrupted(t, "jlisp", cfg)
				if want.Mutator == nil {
					t.Fatal("concurrent run reported no mutator stats")
				}
				loop := want.Cycles - cfg.WithDefaults().ShutdownCycles
				rng := rand.New(rand.NewSource(seed))
				for _, at := range checkpointCycles(rng, loop, 2) {
					checkRestoredRun(t, "jlisp", cfg, at, want, wantHeap)
				}
			})
		}
	}
}

// TestSnapshotRestoreMemoryHierarchy extends the restore matrix to the NUMA
// and cache extensions: hierarchy runs carry extra machine state in the
// snapshot (per-load completion classes, the remote/L1/L2 completion rings,
// cache tag arrays with LRU timestamps, in-flight MSHR occupancy), all of
// which must survive a checkpoint taken at an arbitrary cycle. The cases
// deliberately cross the models — NUMA alone, cache alone, both together,
// and locality-aware placement — and add a counter sanity check so a
// variant that silently ran flat cannot pass.
func TestSnapshotRestoreMemoryHierarchy(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"numa", Config{NUMADomains: 4, NUMARemotePenalty: 30}},
		{"numa-local", Config{NUMADomains: 4, NUMAPlacement: PlacementLocal}},
		{"cache", Config{L1Sets: 16}},
		{"cache-mshr", Config{L1Sets: 8, L1Ways: 1, MSHRs: 2}},
		{"numa-cache", Config{NUMADomains: 2, NUMABandwidth: 2, L1Sets: 16}},
	}
	rng := rand.New(rand.NewSource(13))
	for _, v := range variants {
		for _, cores := range []int{1, 4, 16} {
			v, cores := v, cores
			seed := rng.Int63()
			t.Run(fmt.Sprintf("%s/cores=%d", v.name, cores), func(t *testing.T) {
				t.Parallel()
				cfg := v.cfg
				cfg.Cores = cores
				want, wantHeap := runUninterrupted(t, "javacc", cfg)
				if cfg.NUMADomains > 0 && want.Mem.LocalAccesses+want.Mem.RemoteAccesses == 0 {
					t.Fatal("NUMA run classified no accesses")
				}
				if cfg.L1Sets > 0 && want.Mem.L1Hits+want.Mem.L1Misses == 0 {
					t.Fatal("cache run recorded no L1 lookups")
				}
				loop := want.Cycles - cfg.WithDefaults().ShutdownCycles
				rng := rand.New(rand.NewSource(seed))
				for _, at := range checkpointCycles(rng, loop, 2) {
					checkRestoredRun(t, "javacc", cfg, at, want, wantHeap)
				}
			})
		}
	}
}

// TestRequestCollectionResponseBytes is the serving-tier contract: a
// request collection that is stopped at a slice boundary, held, and then
// driven to completion must produce a response byte-identical to the
// uninterrupted NewCollectResponse encoding.
func TestRequestCollectionResponseBytes(t *testing.T) {
	for _, verify := range []bool{false, true} {
		t.Run(fmt.Sprintf("verify=%v", verify), func(t *testing.T) {
			req := CollectRequest{Bench: "search", Config: Config{Cores: 4}, Verify: verify}
			want, err := NewCollectResponse(req)
			if err != nil {
				t.Fatal(err)
			}
			var wantBuf bytes.Buffer
			if err := want.Encode(&wantBuf); err != nil {
				t.Fatal(err)
			}

			rc, err := StartCollectRequest(CollectRequest{Bench: "search", Config: Config{Cores: 4}, Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			done, err := rc.StepCycles(300)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				t.Fatal("collection finished before the slice boundary")
			}
			if rc.Key() != want.Key {
				t.Fatalf("key mismatch: %s != %s", rc.Key(), want.Key)
			}
			resp, err := rc.Response()
			if err != nil {
				t.Fatal(err)
			}
			var gotBuf bytes.Buffer
			if err := resp.Encode(&gotBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
				t.Fatalf("response bytes differ:\n--- uninterrupted ---\n%s\n--- sliced ---\n%s", wantBuf.String(), gotBuf.String())
			}
		})
	}
}
