package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload briefly, traced, through the code path a
// benchmark run takes, so a change that breaks the benchmark fails here.
// Inputs are cut to a few per workload to keep the whole test short.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			r, err := run(options{
				workload: w.name,
				seed:     7,
				seconds:  0.5,
				trace:    true,
				traceOut: traceOut,
				setups:   1,
				passOps:  4,
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() || r.tally.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.tally.attempted, r.tally.failed, r.failures)
			}
			for _, m := range endToEndMetrics {
				if i := indexOf(r.e2e, m); i < 0 || r.e2e[i].unit != units[m] {
					t.Errorf("end-to-end metric %s missing or not in %s", m, units[m])
				}
			}
			var out bytes.Buffer
			if err := r.writeResult(&out); err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(out.Bytes(), &res); err != nil {
				t.Fatalf("result line %q: %v", out.String(), err)
			}
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s in %s, BENCHMARK.json says %s", name, m.Unit, units[name])
				}
			}
			b, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace file: %d events, %v", len(trace.TraceEvents), err)
			}
		})
	}
}
