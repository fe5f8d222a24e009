package baseline

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hwgc/internal/gcalgo"
	"hwgc/internal/heap"
	"hwgc/internal/object"
	"hwgc/internal/workload"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		c, err := ByName(n)
		if err != nil || c.Name() != n || c.Description() == "" {
			t.Fatalf("collector %q broken", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown collector accepted")
	}
}

// TestAllCollectorsAllBenchmarks is the main integration matrix: every
// software collector collects every benchmark with several worker counts and
// must preserve the logical graph.
func TestAllCollectorsAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow")
	}
	for _, name := range Names() {
		for _, bench := range workload.Names() {
			for _, workers := range []int{1, 3, 8} {
				name, bench, workers := name, bench, workers
				t.Run(name+"/"+bench, func(t *testing.T) {
					c, _ := ByName(name)
					spec, _ := workload.Get(bench)
					plan := spec.Plan(1, 21)
					h, err := plan.BuildHeap(2.4)
					if err != nil {
						t.Fatal(err)
					}
					before, err := gcalgo.Snapshot(h)
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.Collect(h, workers)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if err := VerifyPreserved(before, h); err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					liveObj, liveWords := plan.LiveStats()
					if res.LiveObjects != int64(liveObj) || res.LiveWords != int64(liveWords) {
						t.Fatalf("accounting: got (%d,%d), want (%d,%d)",
							res.LiveObjects, res.LiveWords, liveObj, liveWords)
					}
					// Space accounting: live + waste = words consumed.
					used := int64(h.UsedWords())
					if res.LiveWords+res.WastedWords != used {
						t.Fatalf("live %d + waste %d != used %d", res.LiveWords, res.WastedWords, used)
					}
				})
			}
		}
	}
}

// TestCollectorEquivalenceQuick: random cyclic graphs through every
// collector at random worker counts.
func TestCollectorEquivalenceQuick(t *testing.T) {
	f := func(seed int64, workersRaw, which uint8) bool {
		names := Names()
		c, _ := ByName(names[int(which)%len(names)])
		workers := 1 + int(workersRaw)%8

		rng := rand.New(rand.NewSource(seed))
		plan := &workload.Plan{}
		n := 2 + rng.Intn(150)
		entry := plan.RandomGraph(rng, n, 4, 6)
		plan.AddRoot(entry)
		plan.AddRoot(rng.Intn(n))
		plan.FillData(rng)

		h, err := plan.BuildHeap(2.5)
		if err != nil {
			return false
		}
		before, err := gcalgo.Snapshot(h)
		if err != nil {
			return false
		}
		if _, err := c.Collect(h, workers); err != nil {
			t.Logf("%s collect: %v", c.Name(), err)
			return false
		}
		if err := VerifyPreserved(before, h); err != nil {
			t.Logf("%s (seed %d, %d workers): %v", c.Name(), seed, workers, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedObjects exercises the direct-bump path for objects larger
// than a LAB.
func TestOversizedObjects(t *testing.T) {
	for _, name := range []string{"workpackets", "stealing"} {
		c, _ := ByName(name)
		// Tiny LABs force almost everything through the oversized path.
		switch c.(type) {
		case *workPackets:
			c = &workPackets{PacketCap: 4, LABWords: 8}
		case *stealing:
			c = &stealing{LABWords: 8}
		}
		h := heap.New(4096)
		var prev object.Addr
		for i := 0; i < 20; i++ {
			a, err := h.Alloc(1, 30+i) // size 33+: far above LABWords 8
			if err != nil {
				t.Fatal(err)
			}
			if prev != object.NilPtr {
				h.SetPtr(a, 0, prev)
			}
			prev = a
		}
		h.AddRoot(prev)
		before, _ := gcalgo.Snapshot(h)
		if _, err := c.Collect(h, 4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyPreserved(before, h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestTospaceOverflowAborts(t *testing.T) {
	// A corrupted (oversized) live header must abort the collection with an
	// error rather than deadlock the workers.
	for _, name := range Names() {
		c, _ := ByName(name)
		h := heap.New(128)
		a, _ := h.Alloc(1, 1)
		b, _ := h.Alloc(0, 1)
		h.SetPtr(a, 0, b)
		h.AddRoot(a)
		h.Mem()[b] = object.Header{Pi: 0, Delta: object.MaxDelta}.Encode()
		if _, err := c.Collect(h, 4); err == nil {
			t.Errorf("%s: oversized object not rejected", name)
		}
	}
}

func TestWriteFillerSplitsLargeHoles(t *testing.T) {
	mem := make([]object.Word, 20000)
	// A hole larger than the max object size, and one that would leave a
	// one-word remainder at the split boundary.
	for _, words := range []int{2, 3, object.MaxDelta + 2, object.MaxDelta + 3, 2*(object.MaxDelta+2) + 1, 12345} {
		for i := range mem {
			mem[i] = 0xFFFFFFFFFFFFFFFF
		}
		writeFiller(mem, 4, words)
		// Walk the fillers and verify they tile the hole exactly.
		at := object.Addr(4)
		total := 0
		for total < words {
			hd := object.Decode(mem[at])
			if hd.Pi != 0 || hd.Mark || hd.Gray {
				t.Fatalf("words=%d: bad filler header %+v", words, hd)
			}
			sz := object.SizeWords(mem[at])
			at += object.Addr(sz)
			total += sz
		}
		if total != words {
			t.Fatalf("words=%d: fillers tile %d", words, total)
		}
	}
}

func TestWriteFillerPanicsOnOneWord(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-word filler did not panic")
		}
	}()
	writeFiller(make([]object.Word, 8), 0, 1)
}

// TestLABNeverLeavesOneWordHole drives random allocations through a LAB and
// checks that fromspace stays tileable (the rem != 1 discipline).
func TestLABNeverLeavesOneWordHole(t *testing.T) {
	f := func(seed int64, labRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := heap.New(40000)
		c := newCycle(h)
		labSize := 16 + int(labRaw)%64
		l := &lab{size: labSize}
		var sc SyncCounts
		var allocs []object.Addr
		for i := 0; i < 200; i++ {
			size := 2 + rng.Intn(labSize+4) // some oversized
			a, err := l.alloc(c, size, &sc)
			if err != nil {
				return false
			}
			writeFiller(c.mem, a, size) // stand-in object of exactly that size
			allocs = append(allocs, a)
		}
		l.close(c)
		// The whole allocated prefix of tospace must tile with objects.
		at := c.base
		end := object.Addr(c.free.Load())
		for at < end {
			sz := object.SizeWords(c.mem[at])
			if sz < object.HeaderWords {
				t.Logf("hole at %d", at)
				return false
			}
			at += object.Addr(sz)
		}
		return at == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolTermination(t *testing.T) {
	var aborted atomic.Bool
	p := newPool[int](2, &aborted)
	var sc SyncCounts
	p.Put(7, &sc)

	got := make(chan int, 2)
	done := make(chan bool, 2)
	for w := 0; w < 2; w++ {
		go func() {
			var local SyncCounts
			for {
				it, fin := p.Get(&local)
				if fin {
					done <- true
					return
				}
				got <- it
			}
		}()
	}
	if v := <-got; v != 7 {
		t.Fatalf("got %d", v)
	}
	<-done
	<-done
}

func TestPoolAbort(t *testing.T) {
	var aborted atomic.Bool
	p := newPool[int](2, &aborted) // 2 workers but only 1 will ever call
	var sc SyncCounts
	doneCh := make(chan bool, 1)
	go func() {
		_, fin := p.Get(&sc)
		doneCh <- fin
	}()
	aborted.Store(true)
	if !<-doneCh {
		t.Fatal("abort did not release the pool")
	}
}

func TestSyncCountsArithmetic(t *testing.T) {
	a := SyncCounts{AtomicLoads: 1, AtomicStores: 2, CAS: 3, CASRetries: 1, FetchAdds: 4, MutexOps: 5, SpinWaits: 6}
	var b SyncCounts
	b.add(a)
	b.add(a)
	if b.AtomicLoads != 2 || b.MutexOps != 10 || b.SpinWaits != 12 {
		t.Fatalf("add wrong: %+v", b)
	}
	if a.Total() != 1+2+3+4+5 {
		t.Fatalf("Total = %d", a.Total())
	}
}

// TestFineGrainedPaysMoreSync asserts the paper's core quantitative claim in
// software: object-granularity work distribution costs strictly more
// synchronization operations per object than the coarser schemes.
func TestFineGrainedPaysMoreSync(t *testing.T) {
	perObj := map[string]float64{}
	for _, name := range Names() {
		c, _ := ByName(name)
		spec, _ := workload.Get("javacc")
		h, err := spec.Plan(1, 13).BuildHeap(2.2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Collect(h, 4)
		if err != nil {
			t.Fatal(err)
		}
		perObj[name] = float64(res.Sync.Total()) / float64(res.LiveObjects)
	}
	if perObj["finegrained"] <= perObj["chunked"] || perObj["finegrained"] <= perObj["workpackets"] {
		t.Errorf("fine-grained sync cost %f not above coarse schemes %v", perObj["finegrained"], perObj)
	}
}

// TestChunkedFragmentationBounded: waste is at most one chunk per worker
// (plus oversized spill), and zero for the fine-grained collector.
func TestFragmentationAccounting(t *testing.T) {
	spec, _ := workload.Get("db")
	h, _ := spec.Plan(1, 5).BuildHeap(2.4)
	c, _ := ByName("finegrained")
	res, err := c.Collect(h, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.WastedWords != 0 {
		t.Errorf("fine-grained wasted %d words; must be 0", res.WastedWords)
	}

	h2, _ := spec.Plan(1, 5).BuildHeap(2.4)
	ch := &chunked{ChunkWords: 32 * 1024}
	res2, err := ch.Collect(h2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WastedWords >= int64(4*32*1024) {
		t.Errorf("chunked wasted %d words, more than one chunk per worker", res2.WastedWords)
	}
}

// TestChunkedOversizedPublishRace collects blob (the one benchmark with
// objects larger than a chunk) with 8 chunked workers, repeatedly over one
// reused heap so that tospace holds stale words from earlier cycles. A
// one-object chunk that reaches the shared stack before its copy is
// published is scanned from those stale words by another worker; the race
// detector reports it, and the scan can index far outside the heap.
func TestChunkedOversizedPublishRace(t *testing.T) {
	c, _ := ByName("chunked")
	spec, _ := workload.Get("blob")
	h, err := spec.Plan(1, 21).BuildHeap(2.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		before, err := gcalgo.Snapshot(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Collect(h, 8); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := VerifyPreserved(before, h); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
}
