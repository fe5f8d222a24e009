package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json a comparison reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// boundFloors holds the absolute floors of the bounds that have one;
// BENCHMARK.json carries only the relative part. Set-up time is short on
// some workloads, so half a second of it is never a regression.
var boundFloors = map[string]float64{"setup_s": 0.5}

// readResults reads the result lines of a set of runs of one workload, one
// JSON object per line, and returns each metric's values in run order.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: a run reported incorrect output", path)
		}
		for k, m := range res.Metrics {
			out[k] = append(out[k], m.Value)
		}
	}
	return out, sc.Err()
}

// runCompare compares two sets of runs, DIR_A (the baseline) and DIR_B,
// each holding <workload>.jsonl, metric by metric against the bounds in
// specPath. A bound the baseline's own spread exceeds is unresolved. It also
// flags a spread above a third of the bound, the margin a bound needs to
// tell a regression from noise. It fails if any metric regressed.
func runCompare(w io.Writer, dirs, specPath string) error {
	dirA, dirB, ok := strings.Cut(dirs, ",")
	if !ok {
		return fmt.Errorf("-compare wants DIR_A,DIR_B")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-16s %5s %12s %8s %12s %8s %8s  %s\n",
		"workload", "metric", "bound", "median_A", "iqr_A", "median_B", "iqr_B", "change", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		a, err := readResults(filepath.Join(dirA, wl.Name+".jsonl"))
		if err != nil {
			return err
		}
		b, err := readResults(filepath.Join(dirB, wl.Name+".jsonl"))
		if err != nil {
			return err
		}
		for _, m := range spec.EndToEnd {
			va, vb := a[m.Name], b[m.Name]
			if len(va) < 2 || len(vb) < 2 {
				return fmt.Errorf("%s/%s: need at least two runs on each side", wl.Name, m.Name)
			}
			q1, medA, q3, _ := quartiles(va)
			medB := median(vb)
			bd := bound{rel: m.Bound, floor: boundFloors[m.Name], higherBetter: m.Better == "higher"}
			verdict := bd.check(medA, medB, q3-q1)
			if verdict == verdictRegressed {
				regressed++
			}
			spreadA, spreadB := relSpread(va), relSpread(vb)
			if m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound/3 {
				verdict += ", spread above bound/3"
			}
			fmt.Fprintf(w, "%-14s %-16s %4.0f%% %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%%  %s\n",
				wl.Name, m.Name, 100*m.Bound, medA, 100*spreadA, medB, 100*spreadB, 100*(medB-medA)/medA, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
