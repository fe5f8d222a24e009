package hwgc

import (
	"strings"
	"testing"
)

// FuzzSweepSpaceDecode checks that arbitrary input never panics the sweep
// spec decoder, and that every accepted space upholds the planner's
// invariants: canonicalization is a fixed point (re-decoding canonical
// bytes reproduces them and the key), the post-constraint point count
// respects the cap, and expansion yields exactly that many points with
// unique well-formed keys.
func FuzzSweepSpaceDecode(f *testing.F) {
	f.Add(`{"Benches":["jlisp"]}`)
	f.Add(`{"Benches":["javac","jlisp"],"Scales":[1,2],"Seeds":[7],` +
		`"Axes":[{"Field":"Cores","Values":[1,2,4]},{"Field":"MemLatency","Values":[10,40]}],` +
		`"Constraints":[{"A":"MemLatency","Op":">=","Value":10}],"Objective":"speedup","TopK":8}`)
	f.Add(`{"Benches":["compress"],"Axes":[{"Field":"FIFOCapacity","Values":[0,1024,32768]}],"MaxPoints":4}`)
	f.Add(`{"V":1,"Benches":["db"],"Constraints":[{"A":"MemBanks","Op":">=","B":"Cores"}]}`)
	f.Add(`{"Benches":["jlisp"],"Base":{"MutatorOps":4096},` +
		`"Axes":[{"Field":"BarrierMode","Strings":["none","satb","incupdate"]},{"Field":"Cores","Values":[1,4]}]}`)
	f.Add(`{"Benches":["db"],"Axes":[{"Field":"BarrierMode","Strings":["","satb",""]},{"Field":"MutatorOps","Values":[0,4096]}]}`)
	f.Add(`{"Benches":["jlisp"],"MaxPoints":99999}`)
	f.Add(`not json at all`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := DecodeSweepSpace(strings.NewReader(in))
		if err != nil {
			return // rejected: fine
		}
		canonical, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted space fails CanonicalJSON: %v", err)
		}
		key := KeyBytes(canonical)
		pts, err := s.Points()
		if err != nil {
			t.Fatalf("accepted space fails Points: %v", err)
		}
		if len(pts) == 0 || len(pts) > s.MaxPoints {
			t.Fatalf("accepted space plans %d points outside (0, %d]", len(pts), s.MaxPoints)
		}
		seen := make(map[string]bool, len(pts))
		for i, p := range pts {
			if p.Index != i || len(p.Key) != 64 || len(p.Canonical) == 0 {
				t.Fatalf("point %d malformed: %+v", i, p)
			}
			if seen[p.Key] {
				t.Fatalf("duplicate point key %s", p.Key)
			}
			seen[p.Key] = true
		}
		s2, err := DecodeSweepSpace(strings.NewReader(string(canonical)))
		if err != nil {
			t.Fatalf("canonical bytes rejected on re-decode: %v", err)
		}
		canonical2, err := s2.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(canonical2) != string(canonical) || KeyBytes(canonical2) != key {
			t.Fatalf("canonicalization not idempotent:\n%s\n%s", canonical, canonical2)
		}
	})
}

// FuzzDecodeBatchRequest checks that arbitrary input never panics the
// /v1/batch request decoder, and that every accepted batch is servable:
// each item either expands cleanly into keyed collect points or fails with
// a per-item error — never a panic, and never an item that expands to an
// invalid key.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(`{"Items":[{"Collect":{"Bench":"jlisp","Config":{}}}]}`)
	f.Add(`{"Items":[{"Sweep":{"Bench":"javac","Cores":[1,2,4],"Config":{"Cores":4}}}]}`)
	f.Add(`{"Items":[{"Collect":{"Plan":{"Objs":[{"Pi":1,"Delta":1,"Ptrs":[-1],"Data":[7]}],"Roots":[0]},"Config":{}}}]}`)
	f.Add(`{"Items":[{}]}`)
	f.Add(`{"Items":[]}`)
	f.Add(`not json at all`)
	f.Fuzz(func(t *testing.T, in string) {
		req, err := DecodeBatchRequest(strings.NewReader(in))
		if err != nil {
			return // rejected: fine
		}
		if len(req.Items) == 0 || len(req.Items) > MaxBatchItems {
			t.Fatalf("accepted batch with %d items outside (0, %d]", len(req.Items), MaxBatchItems)
		}
		for i := range req.Items {
			key, pts, err := req.Items[i].Points()
			if err != nil {
				continue // a per-item failure at serve time: fine
			}
			if len(key) != 64 || len(pts) == 0 {
				t.Fatalf("item %d expanded to key %q with %d points", i, key, len(pts))
			}
			for _, p := range pts {
				if len(p.Key) != 64 || p.Key != KeyBytes(p.Canonical) {
					t.Fatalf("item %d point %d keyed %q", i, p.Index, p.Key)
				}
			}
		}
	})
}
