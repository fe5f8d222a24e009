package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostFingerprint identifies the machine a result was measured on, so
// numbers from different hosts are never compared as if alike.
func hostFingerprint() string {
	return "cpu=" + strconv.Quote(cpuModel()) +
		" nproc=" + strconv.Itoa(runtime.NumCPU()) +
		" gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)) +
		" go=" + runtime.Version() +
		" os=" + runtime.GOOS + "/" + runtime.GOARCH
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM) in MiB,
// or 0 where /proc does not report it.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goRuntime is a reading of the Go runtime's GC CPU and allocation
// counters; the difference of two readings covers the interval between them.
type goRuntime struct {
	gcCPU, totalCPU, allocBytes float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return goRuntime{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}
