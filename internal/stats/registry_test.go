package stats

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeString(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryWriteGroupsFamiliesInRegistrationOrder(t *testing.T) {
	var r Registry
	reqs := r.CounterVec("x_requests_total", "Requests, by path and code.", "path", "code")
	big := r.Counter("x_big_total", "A large count.")
	r.GaugeVecFunc("x_depth", "Depth per class.", "class", func() map[string]int64 {
		return map[string]int64{"low": 3, "high": 1, "batch": 2}
	})
	r.GaugeFunc("x_queue", "Queue depth.", func() int64 { return 7 })
	frac := r.FloatGauge("x_fraction", "A fraction.")
	lat := r.Summary("x_seconds", "Latency.", 0.5, 0.99)

	reqs.With("/b", "200").Add(1)
	reqs.With("/a", "500").Add(2)
	reqs.With("/a", "200").Add(3)
	reqs.With("/b", "200").Add(1)
	big.Add(1234567)
	frac.Set(0.25)
	lat.Observe(3 * time.Millisecond)
	lat.Observe(1500 * time.Microsecond)

	want := `# HELP x_requests_total Requests, by path and code.
# TYPE x_requests_total counter
x_requests_total{path="/a",code="200"} 3
x_requests_total{path="/a",code="500"} 2
x_requests_total{path="/b",code="200"} 2
# HELP x_big_total A large count.
# TYPE x_big_total counter
x_big_total 1234567
# HELP x_depth Depth per class.
# TYPE x_depth gauge
x_depth{class="batch"} 2
x_depth{class="high"} 1
x_depth{class="low"} 3
# HELP x_queue Queue depth.
# TYPE x_queue gauge
x_queue 7
# HELP x_fraction A fraction.
# TYPE x_fraction gauge
x_fraction 0.25
# HELP x_seconds Latency.
# TYPE x_seconds summary
x_seconds{quantile="0.5"} 0.002048
x_seconds{quantile="0.99"} 0.004096
x_seconds_sum 0.0045
x_seconds_count 2
`
	if got := writeString(t, &r); got != want {
		t.Errorf("scrape:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryValueFormatting(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(r *Registry)
		want string
	}{
		{"int counter stays decimal", func(r *Registry) { r.Counter("v", "h").Add(1234567) }, "v 1234567\n"},
		{"int gauge goes negative", func(r *Registry) { r.Gauge("v", "h").Add(-3) }, "v -3\n"},
		{"large int is exact", func(r *Registry) { r.Counter("v", "h").Add(1 << 53) }, "v 9007199254740992\n"},
		{"float small", func(r *Registry) { r.FloatGauge("v", "h").Set(1e-7) }, "v 1e-07\n"},
		{"float large", func(r *Registry) { r.FloatGaugeFunc("v", "h", func() float64 { return 1234567 }) }, "v 1.234567e+06\n"},
		{"float integral", func(r *Registry) { r.FloatGauge("v", "h").Set(2) }, "v 2\n"},
		{"empty summary", func(r *Registry) { r.Summary("v", "h", 0.5) },
			"v{quantile=\"0.5\"} 0\nv_sum 0\nv_count 0\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r Registry
			tc.set(&r)
			got := writeString(t, &r)
			got = got[strings.Index(got, "\n# TYPE")+1:]
			got = got[strings.Index(got, "\n")+1:]
			if got != tc.want {
				t.Errorf("samples = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestRegistryLabelEscaping pins the text format's label-value escapes:
// only backslash, double quote and line feed are escaped; everything else,
// including tabs and non-ASCII UTF-8, is written as is (Go's %q would
// instead emit \t, \x.. and \u.... escapes the format does not define).
func TestRegistryLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{`plain`, `plain`},
		{`say "hi"`, `say \"hi\"`},
		{`C:\dir\`, `C:\\dir\\`},
		{"two\nlines", `two\nlines`},
		{"tab\there", "tab\there"},
		{"héllo→世界", "héllo→世界"},
		{"\x01ctl", "\x01ctl"},
		{`b0:` + "\"\\\n", `b0:\"\\\n`},
	} {
		var r Registry
		r.CounterVec("v", "h", "backend").With(tc.value).Add(1)
		want := "v{backend=\"" + tc.want + "\"} 1\n"
		if got := writeString(t, &r); !strings.HasSuffix(got, want) {
			t.Errorf("value %q: scrape %q, want suffix %q", tc.value, got, want)
		}
	}
}

func TestCounterVecWrongArityPanics(t *testing.T) {
	var r Registry
	v := r.CounterVec("v", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("With with one value for two labels did not panic")
		}
	}()
	v.With("only")
}

// TestRegistryConcurrentRecording records from many goroutines while
// scraping; run under -race it checks the registry's synchronization, and
// the final scrape checks no update was lost.
func TestRegistryConcurrentRecording(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "h")
	v := r.CounterVec("v_total", "h", "k")
	s := r.Summary("s_seconds", "h", 0.5)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []string{"a", "b", string(rune('c' + w))}
			for i := 0; i < each; i++ {
				c.Add(1)
				v.With(keys[i%len(keys)]).Add(1)
				s.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Write(&bytes.Buffer{})
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped

	got := writeString(t, &r)
	if !strings.Contains(got, "c_total 4000\n") || !strings.Contains(got, "s_seconds_count 4000\n") {
		t.Errorf("lost updates:\n%s", got)
	}
	var sum int64
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		sum += v.With(k).Load()
	}
	if sum != workers*each {
		t.Errorf("vector children sum to %d, want %d", sum, workers*each)
	}
}

// TestRecordingDoesNotAllocate pins the per-request cost of recording on
// the serving hot path: a counter add, a labelled add on an existing child
// and a summary observation allocate nothing.
func TestRecordingDoesNotAllocate(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "h")
	v1 := r.CounterVec("v1_total", "h", "path")
	v2 := r.CounterVec("v2_total", "h", "backend", "code")
	s := r.Summary("s_seconds", "h", 0.5, 0.95, 0.99)
	v1.With("/v1/collect").Add(1)
	v2.With("b0:127.0.0.1:8080", "200").Add(1)
	path, backend, code := "/v1/collect", "b0:127.0.0.1:8080", "200"
	for name, f := range map[string]func(){
		"counter Add":     func() { c.Add(1) },
		"vec With(1).Add": func() { v1.With(path).Add(1) },
		"vec With(2).Add": func() { v2.With(backend, code).Add(1) },
		"summary Observe": func() { s.Observe(3 * time.Millisecond) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}
