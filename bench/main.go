// Command hwgcbench is the end-to-end benchmark of the hwgc repository. It
// drives the simulator and the gcfleet → gcserved serving stack only through
// their public functions and HTTP endpoints, times every call into a layer
// from outside, checks every output against an in-process reference, and
// prints the metrics later changes are judged by.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	hwgcbench -workload NAME|all [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE]
//	hwgcbench -compare DIR_A,DIR_B [-bounds BENCHMARK.json]
//
// A single workload prints a human-readable report and, as the last line of
// standard output, one JSON object {"correct","attempted","failed","metrics"}.
// With -trace 1 spans are recorded on every other op, written as Chrome
// trace-event JSON, and the result line carries per-layer metrics instead of
// end-to-end ones. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// setups is how many times the workload is set up before its window;
	// setup_s is the median.
	setups int
	// passOps, when positive, truncates every fixed input set (the sim
	// passes, the serve-hot key set, the warm-up requests) to its first
	// passOps entries, so the smoke test runs every workload through the
	// same code in seconds.
	passOps int
}

// inputs is how many of a fixed set of n inputs a run uses.
func (o options) inputs(n int) int {
	if o.passOps > 0 && o.passOps < n {
		return o.passOps
	}
	return n
}

// defaultSetups is the number of setups per run. Set-up is repeated so its
// median, not one noisy sample, is what a later change is compared against.
const defaultSetups = 3

func main() {
	fs := flag.NewFlagSet("hwgcbench", flag.ContinueOnError)
	var (
		o       = options{setups: defaultSetups}
		trace   = fs.Int("trace", 0, "1 = traced run: record spans, report per-layer metrics")
		compare = fs.String("compare", "", "DIR_A,DIR_B: compare two sets of results (one <workload>.jsonl of result lines per workload)")
		bounds  = fs.String("bounds", "BENCHMARK.json", "file holding the end-to-end bounds, for -compare")
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, in seconds")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/WORKLOAD-seedN.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *compare != "" {
		if err := runCompare(os.Stdout, *compare, *bounds); err != nil {
			fmt.Fprintln(os.Stderr, "hwgcbench:", err)
			os.Exit(1)
		}
		return
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hwgcbench: usage: -workload NAME|all [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	o.trace = *trace == 1
	if o.workload == "all" {
		os.Exit(runAll(o, *trace))
	}
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/trace/%s-seed%d.json", o.workload, o.seed)
	}
	r, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwgcbench:", err)
		os.Exit(1)
	}
	if err := r.writeResult(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hwgcbench:", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, so resident memory
// and Go heap state never carry from one workload to the next, and prints
// one combined result line.
func runAll(o options, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwgcbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]resultMetric{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		runErr := cmd.Run()
		last := lastLine(out.String())
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(os.Stderr, "hwgcbench: %s printed no result (%v)\n", w.name, runErr)
			total.Correct = false
			code = 1
			continue
		}
		if runErr != nil {
			code = 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwgcbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return code
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

// fixture is one workload brought up and ready to measure.
type fixture interface {
	// clients is the number of closed-loop clients: each sends its next op
	// only after the previous one completed, as callers waiting for replies
	// do.
	clients() int
	// passLen is the number of ops in one pass over a fixed input set, or 0
	// when every op is a fresh input. A window of a pass workload ends on a
	// pass boundary, so every run times the same mix.
	passLen() int
	// op runs operation seq on behalf of client c, with its layer calls
	// recorded as children of span parent when tr is non-nil.
	op(tr *tracer, parent, c, seq int) error
	// finish runs after the window. It re-checks sampled outputs against
	// in-process references and returns the sequence numbers of ops whose
	// output was wrong; in a traced run (tr non-nil) it also adds this
	// workload's per-layer metrics to r.
	finish(tr *tracer, r *report) (wrong []int, err error)
	close()
}

// workload is one benchmark traffic mix.
type workload struct {
	name  string
	setup func(o options) (fixture, error)
}

// workloads lists every workload in run order. Why each exists is recorded
// in README.md and BENCHMARK.json.
var workloads = []workload{
	{"sim-paper", setupSimPaper},
	{"sim-hierarchy", setupSimHierarchy},
	{"serve-hot", setupServeHot},
	{"serve-cold", setupServeCold},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// parallel calls f(0) … f(n-1) on loadClients goroutines and returns the
// first error. Set-up uses it: its work is not what the window measures, so
// it may use every CPU.
func parallel(n int, f func(i int) error) error {
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < loadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// opRecord is the outcome of one op.
type opRecord struct {
	seq        int
	start, end time.Duration // since the window opened
	traced     bool
	err        error
}

// measure runs the closed loop for o.seconds (extended to a pass boundary
// for pass workloads) and returns every op's record in sequence order.
//
// A traced run interleaves traced and untraced ops at op granularity, so the
// tracing overhead compares two halves of one window that host-speed drift
// cannot tell apart: a pass workload traces every other op with the parity
// flipped each pass, so every input is timed both ways; otherwise each client
// traces every other op of its own. A traced run makes at least two passes,
// or two ops per client, so both modes are measured.
func measure(fx fixture, o options, tr *tracer) []opRecord {
	window := time.Duration(o.seconds * float64(time.Second))
	opened := time.Now()
	runOp := func(c, seq int, traced bool) opRecord {
		var t *tracer
		if traced {
			t = tr
		}
		rec := opRecord{seq: seq, traced: traced, start: time.Since(opened)}
		root := t.begin(spanOp, noSpan, c)
		rec.err = fx.op(t, root, c, seq)
		t.end(root)
		rec.end = time.Since(opened)
		return rec
	}

	if n := fx.passLen(); n > 0 {
		var recs []opRecord
		for pass := 0; ; pass++ {
			for k := 0; k < n; k++ {
				recs = append(recs, runOp(0, pass*n+k, o.trace && (pass+k)%2 == 1))
			}
			if time.Since(opened) >= window && (!o.trace || pass >= 1) {
				return recs
			}
		}
	}

	var (
		mu   sync.Mutex
		recs []opRecord
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < fx.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []opRecord
			for j := 0; time.Since(opened) < window || (o.trace && j < 2); j++ {
				mu.Lock()
				seq := next
				next++
				mu.Unlock()
				mine = append(mine, runOp(c, seq, o.trace && j%2 == 1))
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	return recs
}

// metric is one named measurement in a report.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// report is everything one run measured.
type report struct {
	workload string
	opts     options
	setups   []float64 // seconds
	tally    opTally
	lat      latencySet // untraced ops, milliseconds
	window   time.Duration
	// opsPerSec is the untraced throughput; tracedOpsPerSec that of the
	// traced ops of a traced run.
	opsPerSec, tracedOpsPerSec float64
	failures                   []string
	e2e, layers                []metric
}

func (r *report) layer(name string, value float64, unit string) {
	r.layers = append(r.layers, metric{name: name, value: value, unit: unit})
}

func (r *report) correct() bool { return r.tally.failed == 0 }

// run sets the workload up o.setups times, measures one window on the last
// fixture, verifies its outputs and, for a traced run, records spans and
// per-layer metrics. The report is printed to out as it is produced.
func run(o options, out io.Writer) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setups < 1 {
		o.setups = 1
	}
	fmt.Fprintf(out, "hwgcbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "host %s\n", hostFingerprint())

	r := &report{workload: w.name, opts: o}
	var fx fixture
	for i := 0; i < o.setups; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = w.setup(o); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(out, "setup %d× %s s\n", len(r.setups), formatList(r.setups, "%.3f"))

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rtBefore := readGoRuntime()
	recs := measure(fx, o, tr)
	rtAfter := readGoRuntime()
	peakRSS := peakRSSMiB()
	r.summarize(recs, fx.clients(), nil)

	wrong, err := fx.finish(tr, r)
	fx.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if len(wrong) > 0 {
		r.summarize(recs, fx.clients(), wrong)
	}
	fmt.Fprintf(out, "window %.3f s, %d ops, %d client(s), closed loop\n",
		r.window.Seconds(), r.tally.attempted, fx.clients())

	r.e2e = []metric{
		{name: "setup_s", value: median(r.setups), unit: "s", note: fmt.Sprintf("median of %d", len(r.setups))},
		{name: "ops_per_s", value: r.opsPerSec, unit: "ops/s"},
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		v, ok := r.lat.percentile(p.q)
		note := fmt.Sprintf("n=%d", len(r.lat.ok)+r.lat.failed)
		if !ok {
			note += ", unresolved: fewer than 10 samples beyond it"
		}
		r.e2e = append(r.e2e, metric{name: p.name, value: v, unit: "ms", note: note})
	}
	r.e2e = append(r.e2e,
		metric{name: "error_rate", value: r.tally.errorRate(), unit: "fraction",
			note: fmt.Sprintf("%d of %d failed, %d refused", r.tally.failed, r.tally.attempted, r.tally.refused)},
		metric{name: "peak_rss_mb", value: peakRSS, unit: "MiB", note: "VmHWM from start to the window's end"},
	)

	if tr != nil {
		r.layer("go.gc_cpu_frac", ratio(rtAfter.gcCPU-rtBefore.gcCPU, rtAfter.totalCPU-rtBefore.totalCPU), "fraction")
		r.layer("go.alloc_mb_per_op", (rtAfter.allocBytes-rtBefore.allocBytes)/float64(r.tally.attempted)/(1<<20), "MiB")
		r.layer("trace.overhead_frac", 1-r.tracedOpsPerSec/r.opsPerSec, "fraction")
		spans := tr.stats()
		if op := spans[spanOp]; op != nil && op.total > 0 {
			r.layer("trace.layer_coverage", 1-op.self/op.total, "fraction")
		}
		if err := runProbes(r); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		if err := tr.writeChrome(o.traceOut); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
		fmt.Fprintf(out, "trace %s (%d spans); self time by layer:\n", o.traceOut, len(tr.spans))
		printSelfTimes(out, tr.stats())
		fmt.Fprintf(out, "tracing overhead: %.1f ops/s untraced vs %.1f ops/s traced\n", r.opsPerSec, r.tracedOpsPerSec)
	}

	fmt.Fprintln(out, "end-to-end:")
	printMetrics(out, r.e2e)
	if tr != nil {
		fmt.Fprintln(out, "per-layer:")
		printMetrics(out, r.layers)
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	return r, nil
}

// summarize fills the tally, latencies and throughput from the op records;
// ops listed in wrong failed the post-window output check. Throughput per
// mode follows Little's law for a closed loop, clients × ops ÷ the ops'
// summed latency, which equals ops ÷ wall time when the clients never idle
// and lets interleaved traced and untraced ops be compared.
func (r *report) summarize(recs []opRecord, clients int, wrong []int) {
	bad := make(map[int]bool, len(wrong))
	for _, s := range wrong {
		bad[s] = true
	}
	r.tally = opTally{}
	r.lat = latencySet{}
	r.failures = r.failures[:0]
	r.window = 0
	var ops, tracedOps int
	var busy, tracedBusy time.Duration
	for _, rec := range recs {
		r.tally.attempted++
		r.window = max(r.window, rec.end)
		failed := rec.err != nil || bad[rec.seq]
		if failed {
			r.tally.failed++
			if errors.Is(rec.err, errRefused) {
				r.tally.refused++
			}
			if len(r.failures) < 5 {
				msg := "wrong output (differs from the in-process reference)"
				if rec.err != nil {
					msg = rec.err.Error()
				}
				r.failures = append(r.failures, fmt.Sprintf("op %d: %s", rec.seq, msg))
			}
		}
		if rec.traced {
			tracedOps++
			tracedBusy += rec.end - rec.start
			continue
		}
		ops++
		busy += rec.end - rec.start
		if failed {
			r.lat.failed++
		} else {
			r.lat.ok = append(r.lat.ok, 1e3*(rec.end-rec.start).Seconds())
		}
	}
	r.opsPerSec = ratio(float64(clients*ops), busy.Seconds())
	r.tracedOpsPerSec = ratio(float64(clients*tracedOps), tracedBusy.Seconds())
}

func formatList(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-36s %16.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics and perLayerMetrics are the metrics the result line
// carries in an untraced and a traced run; BENCHMARK.json lists the same
// names (a unit test holds the two in step). The per-layer list keeps the
// metrics every workload measures; the serving-tier ones a workload alone
// has are printed in its report.
var (
	endToEndMetrics = []string{"setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb"}
	perLayerMetrics = []string{
		"workload.build_ms", "workload.build_frac",
		"machine.new_ms", "machine.step_ms", "machine.finish_ms",
		"machine.ns_per_stepped_cycle", "machine.sim_mcycles_per_s",
		"machine.ff_skipped_frac", "machine.ff_jumps_per_op", "machine.sim_cycles_per_pass",
		"machine.stall_frac.scan_lock", "machine.stall_frac.free_lock", "machine.stall_frac.header_lock",
		"machine.stall_frac.body_load", "machine.stall_frac.body_store",
		"machine.stall_frac.header_load", "machine.stall_frac.header_store",
		"machine.empty_worklist_frac",
		"mem.requests_per_op", "mem.order_delays_per_op", "mem.remote_frac",
		"mem.l1_hit_frac", "mem.mshr_full_stalls_per_op",
		"mem.tick_ns.flat", "mem.tick_ns.hier", "syncblock.lock_ns",
		"snapshot.encode_ms", "snapshot.decode_ms", "snapshot.mb",
		"hwgc.key_us", "hwgc.encode_us",
		"go.gc_cpu_frac", "go.alloc_mb_per_op",
		"trace.overhead_frac", "trace.layer_coverage",
	}
)

// writeResult prints the result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *report) writeResult(w io.Writer) error {
	names, from := endToEndMetrics, r.e2e
	if r.opts.trace {
		names, from = perLayerMetrics, r.layers
	}
	res := result{Correct: r.correct(), Attempted: r.tally.attempted, Failed: r.tally.failed,
		Metrics: make(map[string]resultMetric, len(names))}
	for _, name := range names {
		i := indexOf(from, name)
		if i < 0 {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, name)
		}
		v := from[i].value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			// A percentile that landed on a failed op: report it as the
			// worst value JSON can carry (the run already reports failure).
			v = math.MaxFloat64
		}
		res.Metrics[name] = resultMetric{Value: v, Unit: from[i].unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func indexOf(ms []metric, name string) int {
	for i, m := range ms {
		if m.name == name {
			return i
		}
	}
	return -1
}
