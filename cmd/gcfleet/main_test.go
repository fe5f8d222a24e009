package main

import (
	"strings"
	"testing"
	"time"

	"hwgc/internal/cluster"
)

func TestParseOptionsRequiresBackends(t *testing.T) {
	if _, _, _, err := parseOptions(nil); err == nil {
		t.Error("missing -backends accepted")
	}
	if _, _, _, err := parseOptions([]string{"-backends", " , "}); err == nil {
		t.Error("blank -backends accepted")
	}
}

func TestParseOptionsDefaults(t *testing.T) {
	addr, opts, drain, err := parseOptions([]string{"-backends", "http://a:1,http://b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":8090" {
		t.Errorf("addr = %q, want :8090", addr)
	}
	if len(opts.Backends) != 2 || opts.Backends[0] != "http://a:1" || opts.Backends[1] != "http://b:2" {
		t.Errorf("backends = %v", opts.Backends)
	}
	if opts.Replicas != 3 || opts.MaxAttempts != 4 {
		t.Errorf("ring/retry defaults wrong: %+v", opts)
	}
	if opts.HealthInterval != 2*time.Second {
		t.Errorf("health default wrong: %+v", opts)
	}
	if opts.CacheEntries != 1024 || opts.CacheBytes != 64<<20 {
		t.Errorf("edge cache defaults wrong: %+v", opts)
	}
	if drain != 30*time.Second {
		t.Errorf("drain = %s, want 30s", drain)
	}
	// The defaults must actually construct a fleet.
	f, err := cluster.New(opts)
	if err != nil {
		t.Fatalf("default options rejected by cluster.New: %v", err)
	}
	f.Close()
}

func TestParseOptionsAllFlags(t *testing.T) {
	addr, opts, drain, err := parseOptions(strings.Fields(
		"-addr :7000 -backends http://x:1 -replicas 2 -attempts 5 -timeout 9s " +
			"-health-interval 1s -breaker-failures 7 -breaker-cooldown 3s -batch-inflight 2 " +
			"-sweep-poll 40ms -cache-entries 7 -cache-mb 3 -drain 4s"))
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":7000" || drain != 4*time.Second {
		t.Errorf("addr=%q drain=%s", addr, drain)
	}
	if opts.Replicas != 2 || opts.MaxAttempts != 5 || opts.Timeout != 9*time.Second ||
		opts.HealthInterval != time.Second ||
		opts.BreakerThreshold != 7 || opts.BreakerCooldown != 3*time.Second ||
		opts.BatchInflight != 2 || opts.SweepPoll != 40*time.Millisecond ||
		opts.CacheEntries != 7 || opts.CacheBytes != 3<<20 {
		t.Errorf("parsed options: %+v", opts)
	}
}

func TestParseOptionsErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"stray arg":    {"-backends", "http://a:1", "stray"},
		"unknown flag": {"-no-such-flag"},
	} {
		if _, _, _, err := parseOptions(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
