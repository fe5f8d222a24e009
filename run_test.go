package hwgc

import "testing"

func TestBuildBench(t *testing.T) {
	h, plan, err := buildBench("jlisp", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if h.UsedWords() != plan.Words() {
		t.Fatalf("heap holds %d words, plan says %d", h.UsedWords(), plan.Words())
	}
	if _, _, err := buildBench("nope", 1, 7); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// Scale below 1 is clamped.
	if _, _, err := buildBench("jlisp", 0, 7); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchmarkVerified(t *testing.T) {
	r, err := RunBenchmark("jlisp", 1, 7, Config{Cores: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "jlisp" || r.Stats.Cycles <= 0 {
		t.Fatalf("result incomplete: %+v", r)
	}
	if r.LiveObjects <= 0 || r.LiveObjects >= r.PlanObjects {
		t.Fatalf("live/plan accounting wrong: %+v", r)
	}
	if int64(r.LiveObjects) != r.Stats.LiveObjects {
		t.Fatalf("plan live %d vs machine live %d", r.LiveObjects, r.Stats.LiveObjects)
	}
}

func TestSweepCores(t *testing.T) {
	res, err := SweepCores("jlisp", []int{1, 2, 4}, 1, 7, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	// Fresh identical heaps: live sets identical across the sweep.
	for _, r := range res[1:] {
		if r.LiveObjects != res[0].LiveObjects {
			t.Fatalf("sweep not on identical heaps: %d vs %d", r.LiveObjects, res[0].LiveObjects)
		}
	}
	// More cores never slower for a parallel-friendly benchmark.
	if res[2].Stats.Cycles >= res[0].Stats.Cycles {
		t.Fatalf("4 cores (%d cycles) not faster than 1 (%d)", res[2].Stats.Cycles, res[0].Stats.Cycles)
	}
}

func TestCollectOnceDetectsForeignCorruption(t *testing.T) {
	// CollectVerified must pass on a clean heap.
	h, _, err := buildBench("jlisp", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectVerified(h, Config{Cores: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	if _, err := SweepCores("unknown-bench", []int{1}, 1, 7, Config{}, false); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := SweepCores("jlisp", []int{-3}, 1, 7, Config{}, false); err == nil {
		t.Fatal("invalid core count accepted")
	}
}

func TestPaperCoreCounts(t *testing.T) {
	if len(PaperCoreCounts) != 5 || PaperCoreCounts[0] != 1 || PaperCoreCounts[4] != 16 {
		t.Fatalf("paper core counts wrong: %v", PaperCoreCounts)
	}
	if _, err := Workload("jlisp"); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyBoundRequests: the default livelock bound grows with the
// worst memory latency a configuration allows, so a latency-bound request
// finishes (here exactly as it does under a generous explicit MaxCycles)
// instead of failing as a livelock.
func TestLatencyBoundRequests(t *testing.T) {
	for _, tc := range []struct {
		name   string
		req    CollectRequest
		cycles int64
	}{
		{"jlisp/cores=1/extra-latency=1000", CollectRequest{Bench: "jlisp", Config: Config{Cores: 1, ExtraMemLatency: 1000}}, 6_605_173},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.req.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cycles != tc.cycles {
				t.Fatalf("cycles = %d, want %d", res.Stats.Cycles, tc.cycles)
			}
			explicit := tc.req
			explicit.Config.MaxCycles = 100_000_000
			ref, err := explicit.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.Cycles != res.Stats.Cycles {
				t.Fatalf("cycles %d under the default bound, %d under MaxCycles %d", res.Stats.Cycles, ref.Stats.Cycles, explicit.Config.MaxCycles)
			}
		})
	}
}
