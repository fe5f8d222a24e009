package hwgc

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"slices"
	"testing"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/pins.json from the current simulator")

const pinsPath = "testdata/pins.json"

// pinned is one scenario's deterministic metrics, keyed by the name its
// benchmark reports them under.
type pinned map[string]int64

// A pinRow is one line of testdata/pins.json.
type pinRow struct {
	Name    string `json:"name"`
	Metrics pinned `json:"metrics"`
}

type pinCase struct {
	name string
	run  func(testing.TB) pinned
}

// pinCases lists every row of testdata/pins.json, in file order: the same
// scenarios the Fig5/Fig6, BarrierModes, NUMAModes, CacheModel,
// CheckpointedCollect and SnapshotRoundTrip benchmarks time.
func pinCases() []pinCase {
	var cases []pinCase
	for _, f := range []simFamily{fig5, fig6, barrierModes, numaModes, cacheModels} {
		for _, c := range f.cases {
			cases = append(cases, pinCase{f.name + "/" + c.name, func(tb testing.TB) pinned {
				h, err := BuildWorkload(c.bench, 1, benchSeed)
				if err != nil {
					tb.Fatal(err)
				}
				st, err := Collect(h, c.cfg)
				if err != nil {
					tb.Fatal(err)
				}
				return f.metrics(tb, st)
			}})
		}
	}
	for _, every := range checkpointIntervals {
		cases = append(cases, pinCase{"CheckpointedCollect/" + checkpointCaseName(every), func(tb testing.TB) pinned {
			h, err := BuildWorkload("search", 1, benchSeed)
			if err != nil {
				tb.Fatal(err)
			}
			return collectCheckpointed(tb, h, every)
		}})
	}
	return append(cases, pinCase{"SnapshotRoundTrip", snapshotPins})
}

// encodePins renders rows as a JSON array with one row per line, so a
// re-pin diff shows exactly the rows that moved.
func encodePins(rows []pinRow) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		if i < len(rows)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes(), nil
}

// TestPins is the exact gate on every deterministic benchmark output: the
// paper's Fig. 5/Fig. 6 gc-clock-cycles, checkpointing as non-perturbing,
// the snapshot size, and the barrier, NUMA and cache counters. Each row is
// a subtest named after the scenario, so a drift names the row. Re-pin on
// purpose with
//
//	go test -run '^TestPins' -update .
func TestPins(t *testing.T) {
	cases := pinCases()
	want := map[string]pinned{}
	if !*updatePins {
		data, err := os.ReadFile(pinsPath)
		if err != nil {
			t.Fatal(err)
		}
		var rows []pinRow
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", pinsPath, err)
		}
		for _, r := range rows {
			want[r.Name] = r.Metrics
		}
		for name := range want {
			if !slices.ContainsFunc(cases, func(c pinCase) bool { return c.name == name }) {
				t.Errorf("%s: pinned row has no scenario", name)
			}
		}
	}

	got := make([]pinRow, len(cases))
	t.Cleanup(func() {
		if !*updatePins {
			return
		}
		for _, r := range got {
			if r.Name == "" {
				t.Error("-update rewrites every row: run all of TestPins, with no failures")
				return
			}
		}
		data, err := encodePins(got)
		if err == nil {
			err = os.WriteFile(pinsPath, data, 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	})
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m := c.run(t)
			got[i] = pinRow{c.name, m}
			if *updatePins {
				return
			}
			w, ok := want[c.name]
			if !ok {
				t.Fatal("no pinned row; re-pin with go test -run '^TestPins' -update .")
			}
			if !maps.Equal(m, w) {
				t.Errorf("got %v, pinned %v", m, w)
			}
		})
	}
}
