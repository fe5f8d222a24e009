package baseline

import (
	"sync"
	"time"

	"hwgc/internal/heap"
	"hwgc/internal/object"
)

func init() { register(&chunked{ChunkWords: defaultChunkWords}) }

// defaultChunkWords is the chunk size of the chunked collector. It must be
// at least as large as the largest possible object (header + MaxPi +
// MaxDelta); larger chunks mean less synchronization and worse work
// balancing and fragmentation — exactly the trade-off of Section III.
const defaultChunkWords = 16 * 1024

// chunked is Imai & Tick's chunk-based parallel copying collector: tospace
// is dynamically partitioned into fixed-size chunks; at any given time a
// worker scans a single chunk and copies surviving objects into a private
// allocation chunk. References to chunks awaiting scanning travel through a
// shared stack, replacing object-level granularity by chunk-level
// granularity. The two drawbacks the paper names are directly measurable
// here: fragmentation (Result.WastedWords) and the auxiliary dynamic data
// structure apart from the heap (the chunk stack).
type chunked struct {
	// ChunkWords is the chunk size in words.
	ChunkWords int
}

func (*chunked) Name() string { return "chunked" }

func (*chunked) Description() string {
	return "Imai/Tick chunk-based copying (shared stack of chunks)"
}

// chunkRef describes a tospace chunk awaiting scanning: the address range
// that contains objects.
type chunkRef struct {
	start, end object.Addr
}

func (g *chunked) Collect(h *heap.Heap, workers int) (Result, error) {
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	c := newCycle(h)
	// Clamp the chunk size so that small heaps stay collectable: the waste
	// bound is one open chunk per worker, which must fit in the tospace
	// headroom. Objects larger than a chunk bypass it with a dedicated
	// allocation.
	chunkWords := g.ChunkWords
	if chunkWords < 16 {
		chunkWords = defaultChunkWords
	}
	if cap := int(c.limit-c.base) / (4 * workers); chunkWords > cap {
		chunkWords = cap
	}
	if chunkWords < 16 {
		chunkWords = 16
	}
	full := newPool[chunkRef](workers, &c.aborted)

	syncs := make([]SyncCounts, workers)
	errs := make([]error, workers)
	objs := make([]int64, workers)
	words := make([]int64, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &syncs[w]

			// The worker's private allocation chunk doubles as its implicit
			// scan source: objects it evacuates into the chunk are scanned
			// by the worker itself unless the chunk fills up and is handed
			// to the shared stack first.
			var alloc struct {
				start, cur, end object.Addr
				scanned         object.Addr // scan frontier within the chunk
			}

			// closeAllocChunk fills the chunk's tail and pushes its
			// unscanned portion (if any) to the shared stack.
			closeAllocChunk := func() {
				if alloc.end == 0 {
					return
				}
				if rem := int(alloc.end) - int(alloc.cur); rem > 0 {
					writeFiller(c.mem, alloc.cur, rem)
					c.wasted.Add(int64(rem))
				}
				if alloc.scanned < alloc.cur {
					full.Put(chunkRef{alloc.scanned, alloc.cur}, sc)
				}
				alloc = struct{ start, cur, end, scanned object.Addr }{}
			}

			// oversized holds the one-object ranges of dedicated
			// allocations until their copy is published.
			var oversized []chunkRef

			allocObj := func(size int) (object.Addr, error) {
				if size > chunkWords || chunkWords-size == 1 {
					// Oversized for a chunk: dedicated allocation. The range
					// belongs to no allocation chunk, so it is handed to the
					// shared stack as a one-object "chunk" — by resolve, once
					// claimEvacuate has copied the body and published the
					// header. Pushing it here would let another worker scan
					// the frame before it holds the object.
					a, ok := c.bump(size, sc)
					if !ok {
						return 0, errTospaceOverflow
					}
					oversized = append(oversized, chunkRef{a, a + object.Addr(size)})
					return a, nil
				}
				// The chunk allocation discipline mirrors the LAB one: never
				// leave a one-word hole.
				if rem := int(alloc.end) - int(alloc.cur); size > rem || rem-size == 1 {
					closeAllocChunk()
					a, ok := c.bump(chunkWords, sc)
					if !ok {
						return 0, errTospaceOverflow
					}
					alloc.start, alloc.cur, alloc.end, alloc.scanned = a, a, a+object.Addr(chunkWords), a
				}
				a := alloc.cur
				alloc.cur += object.Addr(size)
				return a, nil
			}

			resolve := func(p object.Addr) (object.Addr, error) {
				fwd, evac, err := claimEvacuate(c, p, false, allocObj, sc)
				if evac {
					objs[w]++
				}
				for _, ref := range oversized {
					full.Put(ref, sc)
				}
				oversized = oversized[:0]
				return fwd, err
			}

			fail := func(err error) {
				c.aborted.Store(true)
				errs[w] = err
			}

			if err := processRoots(c, w, workers, resolve); err != nil {
				fail(err)
				return
			}

			// scanRange scans the objects in [from, to) of a chunk the
			// worker owns exclusively.
			scanRange := func(from, to object.Addr) error {
				a := from
				for a < to {
					n, err := scanObject(c, a, resolve)
					if err != nil {
						return err
					}
					words[w] += int64(n)
					a += object.Addr(n)
				}
				return nil
			}

			for {
				// Prefer scanning our own allocation chunk: it needs no
				// synchronization at all (the Cheney trick at chunk scope).
				if alloc.scanned < alloc.cur {
					from, to := alloc.scanned, alloc.cur
					alloc.scanned = to
					if err := scanRange(from, to); err != nil {
						fail(err)
						return
					}
					continue
				}
				// Otherwise take a full chunk from the shared stack. Hand
				// over our (fully scanned) allocation chunk state first? Not
				// needed — it stays usable for future evacuations.
				ref, done := full.Get(sc)
				if done {
					closeAllocChunk()
					if c.aborted.Load() {
						return
					}
					// Re-check: closing may have pushed nothing (fully
					// scanned) and all others are idle too — terminate.
					return
				}
				if err := scanRange(ref.start, ref.end); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := firstErr(errs); err != nil {
		return Result{}, err
	}

	var total SyncCounts
	var liveObjects, liveWords int64
	for w := 0; w < workers; w++ {
		total.add(syncs[w])
		liveObjects += objs[w]
		liveWords += words[w]
	}
	return c.finish(workers, start, liveObjects, liveWords, total), nil
}
