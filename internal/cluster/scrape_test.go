package cluster

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata family goldens from the current scrape")

// scrapeText GETs url/metrics and returns the page.
func scrapeText(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d", url, res.StatusCode)
	}
	return string(body)
}

// checkExposition checks a scrape against the Prometheus text format's
// grouping rules and returns every sample's value keyed by its series (name
// plus label set, as written). Each family must carry exactly one HELP, then
// one TYPE, then its samples, all in one contiguous group, and no series may
// appear twice.
func checkExposition(t *testing.T, page, text string) map[string]float64 {
	t.Helper()
	type family struct {
		help, typ bool
		kind      string
		samples   bool
		closed    bool
	}
	fams := map[string]*family{}
	series := map[string]float64{}
	cur := ""
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("%s line %d %q: "+format, append([]any{page, i + 1, line}, args...)...)
		}
		var name string
		isHelp, isType := strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE ")
		if isHelp || isType {
			if f := strings.Fields(line); len(f) >= 4 {
				name = f[2]
			} else {
				fail("malformed comment")
				continue
			}
		} else {
			end := strings.IndexAny(line, "{ ")
			if end <= 0 {
				fail("malformed sample")
				continue
			}
			name = line[:end]
			for _, suffix := range []string{"_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if f := fams[base]; base != name && f != nil && f.kind == "summary" {
					name = base
				}
			}
		}
		if name != cur && fams[cur] != nil {
			fams[cur].closed = true
		}
		cur = name
		f := fams[name]
		switch {
		case isHelp:
			if f != nil {
				fail("HELP is not the first line of its family")
				continue
			}
			fams[name] = &family{help: true}
		case f == nil:
			fail("family has no HELP before it")
			fams[name] = &family{closed: true}
		case f.closed:
			fail("family is not contiguous")
		case isType:
			if f.typ || f.samples {
				fail("TYPE repeated or after samples")
			}
			f.typ, f.kind = true, strings.Fields(line)[3]
		default:
			if !f.typ {
				fail("sample before its family's TYPE")
			}
			f.samples = true
			sp := strings.LastIndexByte(line, ' ')
			key := line[:sp]
			if _, dup := series[key]; dup {
				fail("series appears twice")
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				fail("value: %v", err)
			}
			series[key] = v
		}
	}
	for name, f := range fams {
		if !f.typ {
			t.Errorf("%s: family %s has no TYPE", page, name)
		}
	}
	return series
}

// checkFamilyGolden matches the page's HELP and TYPE lines — every family's
// name, type and help text, in scrape order — against testdata.
func checkFamilyGolden(t *testing.T, page, text string) {
	t.Helper()
	var got bytes.Buffer
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# ") {
			got.WriteString(line + "\n")
		}
	}
	path := filepath.Join("testdata", page+"_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s families differ from %s:\n got:\n%s", page, path, got.String())
	}
}

// TestScrapeConformance scrapes a live jobs-enabled gcserved (so the gcjobs_
// and gcsweep_ sections are present) and a gcfleet over two of them (so the
// gcelastic_ and gcsweep_ sections are), after traffic has populated the
// labelled families. Both pages must keep the recorded family set and obey
// the exposition format's grouping rules, and the unlabelled request-latency
// summary series the benchmark reads must exist.
func TestScrapeConformance(t *testing.T) {
	_, b1 := startJobsBackend(t)
	_, b2 := startJobsBackend(t)
	f, err := New(Options{
		Backends:       []string{b1.URL, b2.URL},
		HealthInterval: -1,
		Timeout:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	for seed := int64(1); seed <= 4; seed++ {
		res, err := http.Post(fleet.URL+"/v1/collect", "application/json", bytes.NewReader(collectBody(seed)))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("collect seed %d: status %d", seed, res.StatusCode)
		}
	}
	scrapeText(t, b1.URL) // the next scrape then counts a /metrics request too

	for _, page := range []struct{ name, url, latency string }{
		{"gcserved", b1.URL, "gcserved_request_seconds"},
		{"gcfleet", fleet.URL, "gcfleet_request_seconds"},
	} {
		text := scrapeText(t, page.url)
		checkFamilyGolden(t, page.name, text)
		series := checkExposition(t, page.name, text)
		for _, s := range []string{page.latency + "_sum", page.latency + "_count"} {
			if _, ok := series[s]; !ok {
				t.Errorf("%s: no unlabelled %s series", page.name, s)
			}
		}
	}
}
