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
	if opts.Vnodes != cluster.DefaultVnodes || opts.Replicas != 3 || opts.MaxAttempts != 4 {
		t.Errorf("ring/retry defaults wrong: %+v", opts)
	}
	if opts.HedgeQuantile != 0 || opts.HealthInterval != 2*time.Second {
		t.Errorf("hedge/health defaults wrong: %+v", opts)
	}
	if opts.RegistryLimit != 4096 {
		t.Errorf("elastic defaults wrong: %+v", opts)
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
		"-addr :7000 -backends http://x:1 -vnodes 16 -replicas 2 -attempts 5 -timeout 9s " +
			"-hedge-quantile 0.9 -hedge-min 5ms -health-interval 1s " +
			"-breaker-failures 7 -breaker-cooldown 3s -batch-inflight 2 " +
			"-registry-limit 99 -cache-entries 7 -cache-mb 3 -drain 4s"))
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":7000" || drain != 4*time.Second {
		t.Errorf("addr=%q drain=%s", addr, drain)
	}
	if opts.Vnodes != 16 || opts.Replicas != 2 || opts.MaxAttempts != 5 ||
		opts.Timeout != 9*time.Second || opts.HedgeQuantile != 0.9 ||
		opts.HedgeMinDelay != 5*time.Millisecond || opts.HealthInterval != time.Second ||
		opts.BreakerThreshold != 7 || opts.BreakerCooldown != 3*time.Second ||
		opts.BatchInflight != 2 ||
		opts.RegistryLimit != 99 || opts.CacheEntries != 7 || opts.CacheBytes != 3<<20 {
		t.Errorf("parsed options: %+v", opts)
	}
}

func TestParseOptionsErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad quantile":  {"-backends", "http://a:1", "-hedge-quantile", "1.5"},
		"unit quantile": {"-backends", "http://a:1", "-hedge-quantile", "1"},
		"stray arg":     {"-backends", "http://a:1", "stray"},
		"unknown flag":  {"-no-such-flag"},
	} {
		if _, _, _, err := parseOptions(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
