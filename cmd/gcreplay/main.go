// Command gcreplay records, resumes, diffs, and bisects deterministic
// collection runs through the snapshot subsystem. It is the replay-debugging
// companion to gcsim: where gcsim answers "what are the stats", gcreplay
// answers "at which exact clock cycle did two runs stop agreeing, and in
// which machine register".
//
// Usage:
//
//	gcreplay record -bench javac -cores 8 -every 1000 -out ckpts/
//	gcreplay resume -snap ckpts/snap-0000012000.snap
//	gcreplay diff a.snap b.snap [-ignore Config,Cycle]
//	gcreplay bisect -bench javac -config-a '{"Cores":8}' -config-b '{"Cores":8,"ExtraMemLatency":20}'
//	gcreplay bisect -bench jlisp -config-a '{"Cores":4}' -config-b '{"Cores":4}' -inject 100:500
//
// record runs a collection, writing a snapshot roughly every N cycles.
// resume restores one snapshot and drives it to completion. diff prints the
// field-level difference between two snapshots. bisect binary-searches the
// first clock cycle at which two deterministic runs differ in machine state,
// re-running both from scratch with fast-forward disabled so every probe is
// cycle-exact; -inject addr:cycle flips a heap bit in run B at a chosen
// cycle, giving a synthetic divergence with a known ground-truth answer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hwgc"
	"hwgc/internal/machine"
	"hwgc/internal/snapshot"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "gcreplay: expected a subcommand: record, resume, diff, bisect")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:], os.Stdout)
	case "resume":
		err = cmdResume(os.Args[2:], os.Stdout)
	case "diff":
		err = cmdDiff(os.Args[2:], os.Stdout)
	case "bisect":
		err = cmdBisect(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (want record, resume, diff, or bisect)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcreplay:", err)
		os.Exit(1)
	}
}

// parseConfig merges a JSON config with the convenience flags; the flags win
// so `-config '{"Cores":8}' -cores 16` behaves like the last word given.
func parseConfig(configJSON string, cores, extraLat int) (hwgc.Config, error) {
	var cfg hwgc.Config
	if configJSON != "" {
		if err := json.Unmarshal([]byte(configJSON), &cfg); err != nil {
			return cfg, fmt.Errorf("parsing -config: %w", err)
		}
	}
	if cores != 0 {
		cfg.Cores = cores
	}
	if extraLat != 0 {
		cfg.ExtraMemLatency = extraLat
	}
	return cfg, nil
}

func cmdRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcreplay record", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "javac", "benchmark workload ("+strings.Join(hwgc.Workloads(), ", ")+")")
		scale      = fs.Int("scale", 1, "workload scale factor")
		seed       = fs.Int64("seed", 42, "workload seed")
		cores      = fs.Int("cores", 0, "number of GC cores (overrides -config)")
		extraLat   = fs.Int("extra-latency", 0, "extra memory latency in cycles (overrides -config)")
		configJSON = fs.String("config", "", "full machine config as JSON (hwgc.Config)")
		every      = fs.Int64("every", 1000, "cycles between checkpoints")
		outDir     = fs.String("out", "checkpoints", "directory to write snap-<cycle>.snap files into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *every <= 0 {
		return fmt.Errorf("-every must be positive")
	}
	cfg, err := parseConfig(*configJSON, *cores, *extraLat)
	if err != nil {
		return err
	}
	h, err := hwgc.BuildWorkload(*bench, *scale, *seed)
	if err != nil {
		return err
	}
	col, err := hwgc.StartCollection(h, cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	written := 0
	for {
		done, err := col.StepCycles(*every)
		if err != nil {
			return err
		}
		if done {
			break
		}
		snap, err := col.Snapshot()
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("snap-%010d.snap", col.Cycle()))
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			return err
		}
		written++
	}
	st, err := col.Finish()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %s: %d checkpoints in %s, finished at cycle %d (gc-clock-cycles %d)\n",
		*bench, written, *outDir, st.Cycles, st.Cycles)
	return nil
}

func cmdResume(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcreplay resume", flag.ContinueOnError)
	snapPath := fs.String("snap", "", "snapshot file to resume from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapPath == "" {
		return fmt.Errorf("-snap is required")
	}
	data, err := os.ReadFile(*snapPath)
	if err != nil {
		return err
	}
	col, err := hwgc.ResumeCollection(data)
	if err != nil {
		return err
	}
	from := col.Cycle()
	st, err := col.Finish()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "resumed from cycle %d, finished at cycle %d (%d cores, %d words copied)\n",
		from, st.Cycles, len(st.PerCore), st.Sum().WordsCopied)
	return nil
}

func cmdDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcreplay diff", flag.ContinueOnError)
	ignore := fs.String("ignore", "", "comma-separated top-level state fields to ignore")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two snapshot files, got %d", fs.NArg())
	}
	a, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	var skip []string
	if *ignore != "" {
		skip = strings.Split(*ignore, ",")
	}
	lines, err := hwgc.DiffSnapshots(a, b, skip...)
	if err != nil {
		return err
	}
	if len(lines) == 0 {
		fmt.Fprintln(out, "snapshots identical")
		return nil
	}
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	return fmt.Errorf("snapshots differ in %d+ fields", len(lines))
}

// runSpec describes one side of a bisection: a deterministic workload build
// plus an optional heap-bit injection at a chosen cycle.
type runSpec struct {
	bench       string
	scale       int
	seed        int64
	cfg         hwgc.Config
	injectAddr  int64 // heap word index to corrupt; -1 = none
	injectCycle int64
}

// stateAt replays spec cycle-exactly (fast-forward disabled) up to the given
// cycle and returns the machine state there. If the collection terminates
// first it returns (nil, endCycle, nil).
func stateAt(spec runSpec, cycle int64) (*machine.State, int64, error) {
	h, err := hwgc.BuildWorkload(spec.bench, spec.scale, spec.seed)
	if err != nil {
		return nil, 0, err
	}
	m, err := machine.New(h, spec.cfg)
	if err != nil {
		return nil, 0, err
	}
	m.NoFastForward = true
	m.BeginCollect()
	injected := false
	for {
		if spec.injectAddr >= 0 && !injected && m.Cycle() == spec.injectCycle {
			mem := h.Mem()
			if spec.injectAddr >= int64(len(mem)) {
				return nil, 0, fmt.Errorf("inject address %d outside heap of %d words", spec.injectAddr, len(mem))
			}
			mem[spec.injectAddr] ^= 1
			injected = true
		}
		if m.Cycle() >= cycle {
			break
		}
		done, err := m.StepCycle()
		if err != nil {
			return nil, 0, err
		}
		if done {
			return nil, m.Cycle(), nil
		}
	}
	st, err := m.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	return st, 0, nil
}

// bisect finds the first clock cycle at which the two runs' machine states
// differ (configuration differences themselves, and the livelock bound
// MaxCycles that the configuration's memory latency scales, are ignored).
// It returns the
// divergent cycle, the field-level diff there, and the two divergent states.
// A divergence of -1 means the runs never differed.
func bisect(a, b runSpec, progress func(cycle int64, diverged bool)) (int64, []string, *machine.State, *machine.State, error) {
	// Find both end cycles with one full stepped run each.
	const forever = int64(1) << 62
	_, endA, err := stateAt(a, forever)
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("run A: %w", err)
	}
	_, endB, err := stateAt(b, forever)
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("run B: %w", err)
	}
	end := endA
	if endB < end {
		end = endB
	}
	// The last cycle with a live (snapshot-able) machine on both sides.
	hi := end - 1
	probe := func(c int64) (bool, []string, *machine.State, *machine.State, error) {
		sa, _, err := stateAt(a, c)
		if err != nil {
			return false, nil, nil, nil, fmt.Errorf("run A at cycle %d: %w", c, err)
		}
		sb, _, err := stateAt(b, c)
		if err != nil {
			return false, nil, nil, nil, fmt.Errorf("run B at cycle %d: %w", c, err)
		}
		d := snapshot.Diff(sa, sb, "Config", "MaxCycles")
		if progress != nil {
			progress(c, len(d) > 0)
		}
		return len(d) > 0, d, sa, sb, nil
	}
	diverged, diff, sa, sb, err := probe(hi)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	if !diverged {
		if endA != endB {
			// States agree while both run, but one terminates earlier.
			return end, []string{fmt.Sprintf("end cycle: %d != %d", endA, endB)}, sa, sb, nil
		}
		return -1, nil, nil, nil, nil
	}
	lo := int64(0)
	if d0, diff0, sa0, sb0, err := probe(lo); err != nil {
		return 0, nil, nil, nil, err
	} else if d0 {
		return 0, diff0, sa0, sb0, nil
	}
	// Invariant: states agree at lo, differ at hi.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		d, dm, sam, sbm, err := probe(mid)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		if d {
			hi, diff, sa, sb = mid, dm, sam, sbm
		} else {
			lo = mid
		}
	}
	return hi, diff, sa, sb, nil
}

func cmdBisect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcreplay bisect", flag.ContinueOnError)
	var (
		bench   = fs.String("bench", "javac", "benchmark workload ("+strings.Join(hwgc.Workloads(), ", ")+")")
		scale   = fs.Int("scale", 1, "workload scale factor")
		seed    = fs.Int64("seed", 42, "workload seed")
		cfgA    = fs.String("config-a", "", "run A machine config as JSON (hwgc.Config)")
		cfgB    = fs.String("config-b", "", "run B machine config as JSON (hwgc.Config)")
		inject  = fs.String("inject", "", "corrupt run B's heap: addr:cycle flips bit 0 of heap word addr at that cycle (a wild flip in a header or pointer word can crash the run; an unused word diverges only the heap image)")
		dumpDir = fs.String("dump-dir", "", "write the divergent snapshot pair into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a := runSpec{bench: *bench, scale: *scale, seed: *seed, injectAddr: -1}
	b := a
	var err error
	if a.cfg, err = parseConfig(*cfgA, 0, 0); err != nil {
		return fmt.Errorf("-config-a: %w", err)
	}
	if b.cfg, err = parseConfig(*cfgB, 0, 0); err != nil {
		return fmt.Errorf("-config-b: %w", err)
	}
	if *inject != "" {
		addr, cycle, ok := strings.Cut(*inject, ":")
		if !ok {
			return fmt.Errorf("-inject wants addr:cycle, got %q", *inject)
		}
		if b.injectAddr, err = strconv.ParseInt(addr, 10, 64); err != nil {
			return fmt.Errorf("-inject address: %w", err)
		}
		if b.injectCycle, err = strconv.ParseInt(cycle, 10, 64); err != nil {
			return fmt.Errorf("-inject cycle: %w", err)
		}
	}
	cycle, diff, sa, sb, err := bisect(a, b, func(c int64, diverged bool) {
		verdict := "identical"
		if diverged {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(out, "probe cycle %d: %s\n", c, verdict)
	})
	if err != nil {
		return err
	}
	if cycle < 0 {
		fmt.Fprintln(out, "no divergence: the two runs are bit-identical at every cycle")
		return nil
	}
	fmt.Fprintf(out, "first divergent cycle: %d\n", cycle)
	for _, l := range diff {
		fmt.Fprintln(out, "  "+l)
	}
	if *dumpDir != "" && sa != nil && sb != nil {
		if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
			return err
		}
		pa := filepath.Join(*dumpDir, fmt.Sprintf("divergent-a-cycle%d.snap", cycle))
		pb := filepath.Join(*dumpDir, fmt.Sprintf("divergent-b-cycle%d.snap", cycle))
		if err := os.WriteFile(pa, snapshot.Encode(sa), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(pb, snapshot.Encode(sb), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "divergent pair written to %s and %s\n", pa, pb)
	}
	return nil
}
