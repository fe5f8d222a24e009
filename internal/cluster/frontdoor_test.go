package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/frontdoor"
	"hwgc/internal/plan"
	"hwgc/internal/server"
)

// Request spellings shared by the front-door tests: the collect and sweep
// bodies of TestFleetDecodesLikeGCServed.
const (
	memoCollect = `{"Bench":"jlisp","Config":{"Cores":2}}`
	memoSweep   = `{"Bench":"jlisp","Cores":[1,2],"Config":{}}`
	memoSpace   = `{"Space":{"Benches":["jlisp"],"Seeds":[5],"Base":{},"Axes":[{"Field":"Cores","Values":[1]}]}}`
)

// decodeRejects are the 400 rows of TestFleetDecodesLikeGCServed, and the
// seeds of FuzzFrontDoorParity.
var decodeRejects = []struct{ name, path, body string }{
	{"collect unknown field", "/v1/collect", `{"Bench":"jlisp","Config":{},"Bogus":1}`},
	{"collect unknown nested field", "/v1/collect", `{"Bench":"javac","Config":{"Coress":16}}`},
	{"collect trailing value", "/v1/collect", memoCollect + ` {}`},
	{"collect non-JSON", "/v1/collect", `nope`},
	{"sweep unknown field", "/v1/sweep", `{"Bench":"jlisp","Cores":[1],"Config":{},"Bogus":1}`},
	{"sweep unknown nested field", "/v1/sweep", `{"Bench":"jlisp","Cores":[1],"Config":{"Coress":16}}`},
	{"sweep trailing value", "/v1/sweep", memoSweep + ` {}`},
	{"sweep non-JSON", "/v1/sweep", `[`},
	{"sweep invalid core count", "/v1/sweep", `{"Bench":"jlisp","Cores":[2,0],"Config":{}}`},
	{"job unknown field", "/v1/jobs", `{"Collect":` + memoCollect + `,"Bogus":1}`},
	{"job unknown nested field", "/v1/jobs", `{"Collect":{"Bench":"javac","Config":{"Coress":16}}}`},
	{"job trailing value", "/v1/jobs", `{"Collect":` + memoCollect + `} {}`},
	{"job non-JSON", "/v1/jobs", `nope`},
	{"job sweep body", "/v1/jobs", `{"Sweep":` + memoSweep + `}`},
	{"sweeps unknown field", "/v1/sweeps", strings.TrimSuffix(memoSpace, "}") + `,"Bogus":1}`},
	{"sweeps unknown nested field", "/v1/sweeps", `{"Space":{"Benches":["jlisp"],"Seedz":[5]}}`},
	{"sweeps trailing value", "/v1/sweeps", memoSpace + ` {}`},
	{"sweeps non-JSON", "/v1/sweeps", `nope`},
	{"batch unknown field", "/v1/batch", `{"Items":[{"Collect":` + memoCollect + `}],"Bogus":1}`},
	{"batch unknown nested field", "/v1/batch", `{"Items":[{"Collect":{"Bench":"javac","Config":{"Coress":16}}}]}`},
	{"batch trailing value", "/v1/batch", `{"Items":[{"Collect":` + memoCollect + `}]} {}`},
	{"batch non-JSON", "/v1/batch", `nope`},
	{"batch no items", "/v1/batch", `{"Items":[]}`},
	// cup past its largest buildable scale (14): refused when canonicalized,
	// never built.
	{"collect cup past its scale bound", "/v1/collect", `{"Bench":"cup","Scale":15,"Config":{}}`},
	{"collect cup at scale 64", "/v1/collect", `{"Bench":"cup","Scale":64,"Config":{}}`},
	{"sweep cup past its scale bound", "/v1/sweep", `{"Bench":"cup","Cores":[1],"Scale":15,"Config":{}}`},
	{"job cup past its scale bound", "/v1/jobs", `{"Collect":{"Bench":"cup","Scale":64,"Config":{}}}`},
	{"sweeps cup past its scale bound", "/v1/sweeps", `{"Space":{"Benches":["cup"],"Scales":[15]}}`},
}

// frontReply is one HTTP exchange as the client saw it.
type frontReply struct {
	status int
	header http.Header
	body   []byte
	length int64    // resp.ContentLength
	te     []string // resp.TransferEncoding
}

func frontPost(t *testing.T, url, body string) frontReply {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	res.Header.Del("Date")
	return frontReply{res.StatusCode, res.Header, b, res.ContentLength, res.TransferEncoding}
}

// checkFraming asserts a reply went out with its Content-Length and
// unchunked. Replies under net/http's 2 KiB chunking buffer are framed
// that way whatever the handler does, so the body must be larger to show
// anything.
func checkFraming(t *testing.T, what string, r frontReply) {
	t.Helper()
	if len(r.body) <= 2048 {
		t.Fatalf("%s: %d-byte reply is too small to tell the framing", what, len(r.body))
	}
	if r.length != int64(len(r.body)) || len(r.te) != 0 {
		t.Errorf("%s: ContentLength %d TransferEncoding %v for a %d-byte body, want %d and none",
			what, r.length, r.te, len(r.body), len(r.body))
	}
}

// TestFleetReplyFraming: every buffered fleet reply carries its
// Content-Length and is not chunked, exactly as gcserved's replies are.
func TestFleetReplyFraming(t *testing.T) {
	_, backend := startGCServed(t)
	f, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	const collect = `{"Bench":"jlisp","Seed":11,"Config":{"Cores":2}}`
	for _, want := range []string{"MISS", "HIT", "HIT"} { // proxied MISS, proxied backend HIT, edge hit
		r := frontPost(t, fleet.URL+"/v1/collect", collect+"\n")
		if r.status != http.StatusOK || r.header.Get("X-Cache") != want {
			t.Fatalf("fleet collect: status %d X-Cache %q, want 200 %s", r.status, r.header.Get("X-Cache"), want)
		}
		checkFraming(t, "fleet collect "+want, r)
	}
	if f.metrics.cacheHits.Load() != 1 {
		t.Fatalf("edge hits = %d, want 1", f.metrics.cacheHits.Load())
	}
	checkFraming(t, "gcserved collect", frontPost(t, backend.URL+"/v1/collect", collect))
	const sweep = `{"Bench":"jlisp","Cores":[1,2],"Seed":11,"Config":{}}`
	checkFraming(t, "gcserved sweep", frontPost(t, backend.URL+"/v1/sweep", sweep))
	checkFraming(t, "fleet sweep", frontPost(t, fleet.URL+"/v1/sweep", sweep))

	// A 429 or 5xx the fleet gives up on is surfaced with the backend's body.
	big := strings.Repeat("x", 4096)
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(code)
			_, _ = io.WriteString(w, big)
		}))
		bf, err := New(Options{Backends: []string{bad.URL}, HealthInterval: -1, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		bfleet := httptest.NewServer(bf.Handler())
		r := frontPost(t, bfleet.URL+"/v1/collect", collect)
		if r.status != code || string(r.body) != big {
			t.Errorf("surfaced %d: got status %d with a %d-byte body", code, r.status, len(r.body))
		}
		checkFraming(t, "surfaced "+http.StatusText(code), r)
		bfleet.Close()
		bf.Close()
		bad.Close()
	}
}

// TestBodyMemoExact: the fleet's body memo changes no reply. On both tiers
// (gcserved, which has no memo, is the reference) a repeat gives the same
// bytes and headers, equivalent spellings share one key, and a rejected
// body is rejected the same way every time; the fleet never memoizes it.
func TestBodyMemoExact(t *testing.T) {
	_, backend := startJobsBackend(t)
	f, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	for _, tier := range []struct {
		name string
		url  string
		memo *bodyMemo
	}{{"gcserved", backend.URL, nil}, {"gcfleet", fleet.URL, f.memo}} {
		first := frontPost(t, tier.url+"/v1/collect", memoCollect)
		if first.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tier.name, first.status, first.body)
		}
		// The proxied replies change X-Cache from MISS to HIT, so compare
		// the repeats of a warm body.
		warm := frontPost(t, tier.url+"/v1/collect", memoCollect)
		for i := 0; i < 2; i++ {
			again := frontPost(t, tier.url+"/v1/collect", memoCollect)
			if again.status != warm.status || !bytes.Equal(again.body, warm.body) || !maps.EqualFunc(again.header, warm.header, slices.Equal[[]string]) {
				t.Errorf("%s: repeat %d differs:\n%v\n%v", tier.name, i, again.header, warm.header)
			}
		}
		if !bytes.Equal(first.body, warm.body) {
			t.Errorf("%s: warm reply body differs from the first", tier.name)
		}
		key := warm.header.Get("X-Cache-Key")
		for _, spelling := range []string{memoCollect + "\n", `{"Config":{"Cores":2},"Bench":"jlisp"}`} {
			for i := 0; i < 2; i++ {
				r := frontPost(t, tier.url+"/v1/collect", spelling)
				if r.status != http.StatusOK || r.header.Get("X-Cache-Key") != key || !bytes.Equal(r.body, warm.body) {
					t.Errorf("%s: %q: status %d key %s, want 200 %s and the same body", tier.name, spelling, r.status, r.header.Get("X-Cache-Key"), key)
				}
			}
		}
		if tier.memo != nil && tier.memo.c.Len() != 3 {
			t.Errorf("%s: memo holds %d bodies after three spellings, want 3", tier.name, tier.memo.c.Len())
		}
		for _, tc := range decodeRejects {
			a := frontPost(t, tier.url+tc.path, tc.body)
			b := frontPost(t, tier.url+tc.path, tc.body)
			if a.status != http.StatusBadRequest || b.status != a.status || !bytes.Equal(a.body, b.body) {
				t.Errorf("%s: %s: replies %d %s then %d %s", tier.name, tc.name, a.status, a.body, b.status, b.body)
			}
		}
		if tier.memo != nil && tier.memo.c.Len() != 3 {
			t.Errorf("%s: memo holds %d bodies after the rejected rows, want 3", tier.name, tier.memo.c.Len())
		}
	}
}

// TestFleetBodyMemoBounds: the fleet's memo holds at most CacheEntries
// bodies of at most memoMaxBody bytes, and does not exist with the edge
// cache off; either way replies are the same.
func TestFleetBodyMemoBounds(t *testing.T) {
	_, backend := startGCServed(t)
	var ref []byte
	for _, entries := range []int{2, -1} {
		f, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second, CacheEntries: entries})
		if err != nil {
			t.Fatal(err)
		}
		fleet := httptest.NewServer(f.Handler())
		// Five raw bodies of one request (one simulation), then one too
		// large to hold.
		for _, pad := range []int{0, 1, 2, 3, 4, memoMaxBody} {
			r := frontPost(t, fleet.URL+"/v1/collect", memoCollect+strings.Repeat(" ", pad))
			if ref == nil {
				ref = r.body
			}
			if r.status != http.StatusOK || !bytes.Equal(r.body, ref) {
				t.Errorf("CacheEntries %d: padding %d: status %d or body differs", entries, pad, r.status)
			}
			if entries > 0 && (f.memo.c.Len() > entries || f.memo.c.Bytes() > int64(entries)*memoMaxBody) {
				t.Errorf("memo holds %d bodies of %d bytes, bound %d", f.memo.c.Len(), f.memo.c.Bytes(), entries)
			}
		}
		if entries > 0 {
			if _, _, ok := f.memo.c.GetOrigin(string(sha256Sum(memoCollect + strings.Repeat(" ", memoMaxBody)))); ok {
				t.Errorf("a body over memoMaxBody was memoized")
			}
		}
		if entries < 0 && f.memo != nil {
			t.Errorf("CacheEntries %d: the memo exists", entries)
		}
		fleet.Close()
		f.Close()
	}
}

func sha256Sum(s string) []byte {
	sum := sha256.Sum256([]byte(s))
	return sum[:]
}

// TestOversizedCollectBody: a body past the size limit gets the streaming
// decoder's 400, in the same words on both tiers, whether its length is
// declared or chunked.
func TestOversizedCollectBody(t *testing.T) {
	_, backend := startGCServed(t)
	f, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()
	big := []byte(`{"Bench":"` + strings.Repeat("a", frontdoor.MaxBodyBytes) + `"}`)
	const want = `{"Error":"decoding request: http: request body too large"}` + "\n"
	for _, url := range []string{backend.URL, fleet.URL} {
		for _, chunked := range []bool{false, true} {
			var body io.Reader = bytes.NewReader(big)
			if chunked {
				body = io.MultiReader(body) // unknown length: sent chunked
			}
			res, err := http.Post(url+"/v1/collect", "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusBadRequest || string(got) != want {
				t.Errorf("%s chunked=%v: %d %s, want 400 %s", url, chunked, res.StatusCode, got, want)
			}
		}
	}
}

// FuzzCollectBodyMemo: for any body, the memo path answers exactly what a
// strict decode plus canonicalization does, on the first sighting and on a
// repeat, and a body that fails is never memoized.
func FuzzCollectBodyMemo(f *testing.F) {
	for _, tc := range decodeRejects {
		if tc.path == "/v1/collect" {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(memoCollect + "\n"))
	f.Add([]byte(memoCollect))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req hwgc.CollectRequest
		var canon []byte
		err := plan.DecodeStrict(bytes.NewReader(raw), &req)
		wantErr := "decoding request: "
		if err == nil {
			canon, err = req.CanonicalJSON()
			wantErr = "invalid request: "
		}
		memo := newBodyMemo(4)
		for i := 0; i < 2; i++ {
			key, mcanon, merr := memo.lookup(raw)
			if err != nil {
				if merr == nil || merr.Error() != wantErr+err.Error() {
					t.Fatalf("sighting %d: memo path error %v, direct error %v", i, merr, err)
				}
				if memo.c.Len() != 0 {
					t.Fatalf("sighting %d: a failed body was memoized", i)
				}
				continue
			}
			if merr != nil || key != hwgc.KeyBytes(canon) || !bytes.Equal(mcanon, canon) {
				t.Fatalf("sighting %d: memo path %s %q (err %v), direct %s %q", i, key, mcanon, merr, hwgc.KeyBytes(canon), canon)
			}
			want := 1
			if len(canon) > memoMaxBody {
				want = 0
			}
			if memo.c.Len() != want {
				t.Fatalf("sighting %d: memo holds %d bodies, want %d", i, memo.c.Len(), want)
			}
		}
	})
}

// failingBody yields data, then fails with err.
type failingBody struct {
	data []byte
	err  error
}

func (b *failingBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// TestReadCollectReplaysReadError: a body whose read fails part-way is
// decoded from the bytes read and then the same error, exactly as the
// streaming decode sees it, and is not memoized.
func TestReadCollectReplaysReadError(t *testing.T) {
	broken := errors.New("connection reset")
	for _, prefix := range []string{`{"Bench":"jl`, `{"Bench":"jlisp"} `, `nope`} {
		_, _, want := decodeCollect(&failingBody{[]byte(prefix), broken})
		memo := newBodyMemo(4)
		r := httptest.NewRequest(http.MethodPost, "/v1/collect", &failingBody{[]byte(prefix), broken})
		r.ContentLength = 64
		_, _, got := memo.readCollect(httptest.NewRecorder(), r)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Errorf("%q: readCollect error %v, streaming decode %v", prefix, got, want)
		}
		if memo.c.Len() != 0 {
			t.Errorf("%q: a body that failed to read was memoized", prefix)
		}
	}
}

// TestSweepsSubmitDuringShutdown: a /v1/sweeps submitted to a tier that is
// shutting down is the same 503 on both tiers.
func TestSweepsSubmitDuringShutdown(t *testing.T) {
	s, backend := startJobsBackend(t)
	f, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()
	f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	const want = `{"Error":"server is shutting down"}` + "\n"
	for _, url := range []string{backend.URL, fleet.URL} {
		if r := frontPost(t, url+"/v1/sweeps", memoSpace); r.status != http.StatusServiceUnavailable || string(r.body) != want {
			t.Errorf("%s: %d %s, want 503 %s", url, r.status, r.body, want)
		}
	}
}

// TestFleetBatchItemCarriesBackendError: a batch item whose point the
// backend rejects reads the same through the fleet as straight from the
// backend: the backend's own status and error text.
func TestFleetBatchItemCarriesBackendError(t *testing.T) {
	s, err := server.New(server.Options{Workers: 1, MaxScale: 4, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(s.Handler())
	defer func() {
		backend.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	f, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()

	const batch = `{"Items":[{"Collect":{"Bench":"jlisp","Scale":8,"Config":{}}},{"Collect":` + memoCollect + `}]}`
	var items [2][]hwgc.BatchItemResult
	for i, url := range []string{backend.URL, fleet.URL} {
		r := frontPost(t, url+"/v1/batch", batch)
		br, err := hwgc.DecodeBatchResponse(bytes.NewReader(r.body))
		if r.status != http.StatusMultiStatus || err != nil || len(br.Items) != 2 {
			t.Fatalf("%s: status %d (%v): %s", url, r.status, err, r.body)
		}
		items[i] = br.Items
	}
	for i := range items[0] {
		direct, via := items[0][i], items[1][i]
		if via.Status != direct.Status || via.Error != direct.Error {
			t.Errorf("item %d: fleet %d %q, gcserved %d %q", i, via.Status, via.Error, direct.Status, direct.Error)
		}
	}
	if got := items[1][0]; got.Status != http.StatusBadRequest || got.Error != "scale 8 exceeds server limit 4" {
		t.Errorf("over-scale item %d %q, want 400 and the backend's limit", got.Status, got.Error)
	}
}

// accepted reports whether body is a request path runs: it decodes
// strictly and, but for a batch, canonicalizes into collect points.
func accepted(path string, body []byte) bool {
	var it hwgc.BatchItem
	var req any
	switch path {
	case "/v1/batch":
		_, err := hwgc.DecodeBatchRequest(bytes.NewReader(body))
		return err == nil
	case "/v1/sweep":
		it.Sweep = &hwgc.SweepRequest{}
		req = it.Sweep
	default:
		it.Collect = &hwgc.CollectRequest{}
		req = it.Collect
	}
	if plan.DecodeStrict(bytes.NewReader(body), req) != nil {
		return false
	}
	_, _, err := it.Points()
	return err == nil
}

// FuzzFrontDoorParity: every body one of the sync endpoints rejects gets the
// same status and bytes from gcfleet as from gcserved. Bodies an endpoint
// accepts are skipped there, so no simulation runs.
func FuzzFrontDoorParity(f *testing.F) {
	for _, tc := range decodeRejects {
		f.Add([]byte(tc.body))
	}
	_, backend := startGCServed(f)
	fl, err := New(Options{Backends: []string{backend.URL}, HealthInterval: -1, Timeout: 30 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(fl.Close)
	fleet := httptest.NewServer(fl.Handler())
	f.Cleanup(fleet.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/collect", "/v1/sweep", "/v1/batch"} {
			if accepted(path, body) {
				continue
			}
			direct := frontPost(t, backend.URL+path, string(body))
			via := frontPost(t, fleet.URL+path, string(body))
			if via.status != direct.status || !bytes.Equal(via.body, direct.body) {
				t.Fatalf("%s %q: fleet %d %s, gcserved %d %s", path, body, via.status, via.body, direct.status, direct.body)
			}
		}
	})
}
