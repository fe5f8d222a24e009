package stats

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a set of metric families written in the Prometheus text
// exposition format (version 0.0.4). It is the one exporter every serving
// tier declares its /metrics families against, in the spirit of the paper's
// on-chip monitor: each family attributes work or waiting to one cause.
//
// Write emits families in registration order, each as one group (HELP, then
// TYPE, then its samples), with labelled children sorted by label values, so
// a scrape is deterministic. Int series are written with %d, float series
// with %g. Register every family before the first Write; recording into a
// registered family is safe from any goroutine, concurrently with Write.
type Registry struct {
	families []family
}

type family struct {
	name, help, typ string
	samples         func(b []byte, name string) []byte // appends the sample lines
}

func (r *Registry) add(name, help, typ string, samples func([]byte, string) []byte) {
	r.families = append(r.families, family{name, help, typ, samples})
}

// Write writes every family to w.
func (r *Registry) Write(w io.Writer) error {
	var b []byte
	for _, f := range r.families {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		b = f.samples(b, f.name)
	}
	_, err := w.Write(b)
	return err
}

// Int is an int64 counter or gauge.
type Int struct{ v atomic.Int64 }

// Add adds n (negative n lowers a gauge).
func (i *Int) Add(n int64) { i.v.Add(n) }

// Load returns the current value.
func (i *Int) Load() int64 { return i.v.Load() }

// Float is a float64 gauge.
type Float struct{ bits atomic.Uint64 }

// Set stores v.
func (f *Float) Set(v float64) { f.bits.Store(math.Float64bits(v)) }

// Load returns the last stored value.
func (f *Float) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter registers an unlabelled int counter.
func (r *Registry) Counter(name, help string) *Int { return r.newInt(name, help, "counter") }

// Gauge registers an unlabelled int gauge.
func (r *Registry) Gauge(name, help string) *Int { return r.newInt(name, help, "gauge") }

func (r *Registry) newInt(name, help, typ string) *Int {
	i := new(Int)
	r.intFunc(name, help, typ, i.Load)
	return i
}

// GaugeFunc registers an unlabelled int gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.intFunc(name, help, "gauge", fn)
}

// CounterFunc registers an unlabelled int counter sampled from fn at
// scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.intFunc(name, help, "counter", fn)
}

func (r *Registry) intFunc(name, help, typ string, fn func() int64) {
	r.add(name, help, typ, func(b []byte, name string) []byte {
		return appendInt(appendSeries(b, name, nil, nil), fn())
	})
}

// FloatGauge registers an unlabelled float gauge.
func (r *Registry) FloatGauge(name, help string) *Float {
	f := new(Float)
	r.FloatGaugeFunc(name, help, f.Load)
	return f
}

// FloatGaugeFunc registers an unlabelled float gauge sampled from fn at
// scrape time.
func (r *Registry) FloatGaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(b []byte, name string) []byte {
		return appendFloat(appendSeries(b, name, nil, nil), fn())
	})
}

// GaugeVecFunc registers a gauge family with one label whose children are
// sampled from fn at scrape time, as label value -> value.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]int64) {
	r.vecFunc(name, help, "gauge", label, fn)
}

// CounterVecFunc is GaugeVecFunc for a family of counters kept elsewhere.
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]int64) {
	r.vecFunc(name, help, "counter", label, fn)
}

func (r *Registry) vecFunc(name, help, typ, label string, fn func() map[string]int64) {
	labels := []string{label}
	r.add(name, help, typ, func(b []byte, name string) []byte {
		m := fn()
		values := make([]string, 0, len(m))
		for v := range m {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			b = appendInt(appendSeries(b, name, labels, []string{v}), m[v])
		}
		return b
	})
}

// CounterVec is a counter family with one child per distinct tuple of
// label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*vecChild // by label values joined with NUL
}

type vecChild struct {
	values []string
	n      Int
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, children: make(map[string]*vecChild)}
	r.add(name, help, "counter", v.samples)
	return v
}

// With returns the child counter for values, one per label name, creating
// it on first use. Looking up an existing child does not allocate.
func (v *CounterVec) With(values ...string) *Int {
	var buf [128]byte
	key := buf[:0]
	for i, s := range values {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, s...)
	}
	v.mu.RLock()
	c := v.children[string(key)]
	v.mu.RUnlock()
	if c == nil {
		c = v.create(string(key), values)
	}
	return &c.n
}

func (v *CounterVec) create(key string, values []string) *vecChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("stats: %d label values for labels %q", len(values), v.labels))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[key]
	if c == nil {
		c = &vecChild{values: slices.Clone(values)}
		v.children[key] = c
	}
	return c
}

func (v *CounterVec) samples(b []byte, name string) []byte {
	v.mu.RLock()
	kids := make([]*vecChild, 0, len(v.children))
	for _, c := range v.children {
		kids = append(kids, c)
	}
	v.mu.RUnlock()
	slices.SortFunc(kids, func(x, y *vecChild) int { return slices.Compare(x.values, y.values) })
	for _, c := range kids {
		b = appendInt(appendSeries(b, name, v.labels, c.values), c.n.Load())
	}
	return b
}

// Summary is a latency family backed by a Hist: it is written as the
// Hist's upper-bound estimate of each of a fixed list of quantiles, plus
// _sum and _count.
type Summary struct {
	quantiles []float64
	mu        sync.Mutex
	h         Hist
}

// Summary registers a summary family reporting the given quantiles.
func (r *Registry) Summary(name, help string, quantiles ...float64) *Summary {
	s := &Summary{quantiles: quantiles}
	r.add(name, help, "summary", s.samples)
	return s
}

// Observe records one latency sample.
func (s *Summary) Observe(d time.Duration) {
	s.mu.Lock()
	s.h.Observe(d)
	s.mu.Unlock()
}

var quantileLabel = []string{"quantile"}

func (s *Summary) samples(b []byte, name string) []byte {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	for _, q := range s.quantiles {
		b = appendSeries(b, name, quantileLabel, []string{strconv.FormatFloat(q, 'g', -1, 64)})
		b = appendFloat(b, h.Quantile(q))
	}
	b = appendFloat(appendSeries(b, name+"_sum", nil, nil), h.Sum().Seconds())
	return appendInt(appendSeries(b, name+"_count", nil, nil), h.Count())
}

// appendSeries appends a sample's series, name{label="value",...}, and the
// space before its value.
func appendSeries(b []byte, name string, labels, values []string) []byte {
	b = append(b, name...)
	sep := '{'
	for i, l := range labels {
		b = fmt.Appendf(b, `%c%s="%s"`, sep, l, labelEscaper.Replace(values[i]))
		sep = ','
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// labelEscaper escapes a label value as the text format defines: backslash,
// double quote and line feed are the only escapes, and every other byte,
// UTF-8 included, is written as is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func appendInt(b []byte, v int64) []byte {
	return append(strconv.AppendInt(b, v, 10), '\n')
}

func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}
