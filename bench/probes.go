package main

import (
	"bytes"
	"fmt"
	"time"

	"hwgc"
	"hwgc/internal/machine"
	"hwgc/internal/mem"
	"hwgc/internal/object"
	"hwgc/internal/snapshot"
	"hwgc/internal/syncblock"
)

// The layer probes time single layers on fixed inputs, independent of the
// run's seed and workload, so a change to one layer shows in its probe on
// every workload's traced run.

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 5

// timeMedian runs f probeReps times and returns the median duration divided
// by per, in seconds.
func timeMedian(per float64, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds()/per)
	}
	return median(ts), nil
}

func runProbes(r *report) error {
	for _, p := range []struct {
		name string
		cfg  mem.Config
	}{{"mem.tick_ns.flat", mem.Config{}}, {"mem.tick_ns.hier", mem.Config{Domains: 4, L1Sets: 16}}} {
		s, err := timeMedian(memProbeTicks, func() error { memProbe(p.cfg); return nil })
		if err != nil {
			return err
		}
		r.layer(p.name, 1e9*s, "ns")
	}
	s, _ := timeMedian(syncProbeRounds*16*2, func() error { syncProbe(); return nil })
	r.layer("syncblock.lock_ns", 1e9*s, "ns")
	if err := snapshotProbe(r); err != nil {
		return err
	}
	return codecProbe(r)
}

const memProbeTicks = 50_000

// memProbe drives 16 cores against the memory scheduler for memProbeTicks
// cycles: every core keeps one body load and one header load outstanding
// and issues a body store every fourth cycle, over seeded random addresses.
// The time per Tick includes the issue and poll calls of that cycle.
func memProbe(cfg mem.Config) {
	const cores, words = 16, 1 << 16
	m := mem.New(make([]object.Word, words), cfg)
	m.AttachCores(cores)
	var busy [cores][2]bool
	x := uint64(1)
	addr := func() object.Addr {
		x = splitmix64(x)
		return object.Addr(1 + x%(words-1))
	}
	for t := 0; t < memProbeTicks; t++ {
		for c := 0; c < cores; c++ {
			for i, port := range []mem.Port{mem.BodyLoad, mem.HeaderLoad} {
				if !busy[c][i] {
					busy[c][i] = m.IssueLoad(c, port, addr())
				} else if _, _, ok := m.PollLoad(c, port); ok {
					busy[c][i] = false
				}
			}
			if t%4 == c%4 {
				m.IssueStore(c, mem.BodyStore, addr(), object.Word(t))
			}
		}
		m.Tick()
	}
}

const syncProbeRounds = 50_000

// syncProbe runs rounds in which each of 16 cores tries the scan lock
// (held by the first taker until the round ends) and a header lock on one of
// 32 addresses, so both conflict paths run; every attempt is one lock op.
func syncProbe() {
	const cores = 16
	sb := syncblock.New(cores)
	sb.Reset(1, 1)
	x := uint64(2)
	for r := 0; r < syncProbeRounds; r++ {
		owner := -1
		for c := 0; c < cores; c++ {
			if sb.TryAcquireScan(c) {
				owner = c
				sb.SetScan(c, sb.Scan()+1)
			}
			x = splitmix64(x)
			sb.TryLockHeader(c, object.Addr(1+x%32))
		}
		if owner >= 0 {
			sb.ReleaseScan(owner)
		}
		for c := 0; c < cores; c++ {
			sb.UnlockHeader(c)
		}
	}
}

// snapshotProbe encodes and decodes the state of javacc at 16 cores, stopped
// at cycle 20000 — a mid-collection snapshot of the largest heap the
// servers checkpoint.
func snapshotProbe(r *report) error {
	h, err := hwgc.BuildWorkload("javacc", 1, 42)
	if err != nil {
		return err
	}
	m, err := machine.New(h, hwgc.Config{Cores: 16})
	if err != nil {
		return err
	}
	m.BeginCollect()
	if done, err := m.StepCycles(20000); err != nil || done {
		return fmt.Errorf("snapshot probe: stepping to cycle 20000: done=%t err=%v", done, err)
	}
	st, err := m.Snapshot()
	if err != nil {
		return err
	}
	var data []byte
	enc, _ := timeMedian(1, func() error { data = snapshot.Encode(st); return nil })
	dec, err := timeMedian(1, func() error { _, err := snapshot.Decode(data); return err })
	if err != nil {
		return err
	}
	r.layer("snapshot.encode_ms", 1e3*enc, "ms")
	r.layer("snapshot.decode_ms", 1e3*dec, "ms")
	r.layer("snapshot.mb", float64(len(data))/(1<<20), "MiB")
	return nil
}

const codecProbeLoops = 200

// codecProbe times the request codec on the serve-hot request shapes at
// 4 cores and the fixed seed 42: Key (canonicalize, marshal, SHA-256) and
// the response Encode.
func codecProbe(r *report) error {
	var reqs []hwgc.CollectRequest
	var resps []*hwgc.CollectResponse
	for _, b := range hwgc.Workloads() {
		req := hwgc.CollectRequest{Bench: b, Seed: 42, Config: hwgc.Config{Cores: 4}}
		resp, err := hwgc.NewCollectResponse(req)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
		resps = append(resps, resp)
	}
	n := float64(codecProbeLoops * len(reqs))
	key, err := timeMedian(n, func() error {
		for i := 0; i < codecProbeLoops; i++ {
			for _, req := range reqs {
				if _, err := req.Key(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	encode, err := timeMedian(n, func() error {
		for i := 0; i < codecProbeLoops; i++ {
			for _, resp := range resps {
				buf.Reset()
				if err := resp.Encode(&buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer("hwgc.key_us", 1e6*key, "us")
	r.layer("hwgc.encode_us", 1e6*encode, "us")
	return nil
}
