package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the percentile is reported as resolved: with fewer, one outlier moves it.
const minBeyond = 10

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
func rankOf(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// resolved reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func resolved(n int, q float64) bool {
	return n > 0 && n-rankOf(n, q) >= minBeyond
}

// median returns the median of values (the mean of the two middle values for
// an even count), or NaN for none. values is not modified.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points dividing values into quarters,
// computed like Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so spreads printed here match that tool's. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(values)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// relSpread is the interquartile distance of values as a share of their
// median: the run-to-run noise a bound has to stand above.
func relSpread(values []float64) float64 {
	q1, q2, q3, ok := quartiles(values)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// opTally counts the outcome of every operation a workload attempted. A
// refused op (HTTP 429) is one kind of failed op.
type opTally struct {
	attempted int
	failed    int
	refused   int
}

// errorRate is failed ops over attempted ops.
func (t opTally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// latencySet holds the latencies of successful ops and the count of failed
// ones. A failed op counts as missing every latency percentile, i.e. as an
// infinitely slow sample.
type latencySet struct {
	ok     []float64
	failed int
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) over
// successful and failed ops, +Inf when it lands on a failed op, and whether
// it is resolved.
func (l latencySet) percentile(q float64) (v float64, ok bool) {
	n := len(l.ok) + l.failed
	if n == 0 {
		return math.NaN(), false
	}
	r := rankOf(n, q)
	if r > len(l.ok) {
		return math.Inf(1), resolved(n, q)
	}
	return sortedCopy(l.ok)[r-1], resolved(n, q)
}

// bound is how far a metric may move in its worse direction before a change
// counts as a regression: rel is a share of the baseline median, floor an
// absolute amount in the metric's unit; the larger of the two applies.
type bound struct {
	rel          float64
	floor        float64
	higherBetter bool
}

// Verdicts of a bound check.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// check compares the candidate median against the baseline median. When the
// run-to-run spread (an absolute interquartile distance) exceeds the
// tolerated worsening, the two cannot be told apart at that bound and the
// verdict is unresolved rather than ok.
func (b bound) check(base, cand, spread float64) string {
	allowed := math.Max(b.rel*math.Abs(base), b.floor)
	if spread > allowed {
		return verdictUnresolved
	}
	worse := cand - base
	if b.higherBetter {
		worse = base - cand
	}
	if worse > allowed {
		return verdictRegressed
	}
	return verdictOK
}
