package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. Every op is one "op" span whose children are the calls into
// the layers below it; "replay" is the same for a request re-run in process
// after the window.
const (
	spanOp            = "op"
	spanReplay        = "replay"
	spanBuild         = "workload.build"
	spanMachineNew    = "machine.new"
	spanMachineStep   = "machine.step"
	spanMachineFinish = "machine.finish"
	spanRequest       = "client.request"
)

// noSpan is the parent of a root span and the id of a span not recorded.
const noSpan = -1

type span struct {
	name       string
	parent     int
	tid        int
	start, end time.Duration // since the tracer's origin
}

// tracer records spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, so untraced ops pay one nil check per layer
// call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent on thread tid and returns its id.
func (t *tracer) begin(name string, parent, tid int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, tid: tid, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, tid int, f func() error) error {
	id := t.begin(name, parent, tid)
	err := f()
	t.end(id)
	return err
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	durs  []float64 // seconds, one per span
	total float64   // seconds
	self  float64   // seconds not covered by child spans
}

// stats aggregates closed spans by name. A span's self time is its duration
// minus its children's; children of one span never overlap here, because
// every op calls its layers one after another.
func (t *tracer) stats() map[string]*spanStat {
	out := make(map[string]*spanStat)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 && s.parent != noSpan {
			child[s.parent] += (s.end - s.start).Seconds()
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		d := (s.end - s.start).Seconds()
		st.durs = append(st.durs, d)
		st.total += d
		st.self += d - child[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev). Each span is a complete
// ("X") event on the thread of the client that ran it; args carry the span's
// id and its parent's.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		b, err := json.Marshal(event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid + 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		})
		if err != nil {
			return err
		}
		if !first {
			w.WriteString(",\n")
		}
		first = false
		w.Write(b)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table: for every span name,
// its count, median duration, total and self time, and self time as a share
// of all root-span time.
func printSelfTimes(w io.Writer, st map[string]*spanStat) {
	var rootTotal float64
	for _, name := range []string{spanOp, spanReplay} {
		if s := st[name]; s != nil {
			rootTotal += s.total
		}
	}
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "  %-16s %8s %12s %10s %10s %7s\n", "span", "count", "median_ms", "total_s", "self_s", "self%")
	for _, n := range names {
		s := st[n]
		share := 0.0
		if rootTotal > 0 {
			share = 100 * s.self / rootTotal
		}
		fmt.Fprintf(w, "  %-16s %8d %12.4f %10.3f %10.3f %6.1f%%\n",
			n, len(s.durs), 1e3*median(s.durs), s.total, s.self, share)
	}
}
