package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwgc"
	"hwgc/internal/cluster"
	"hwgc/internal/server"
)

// errRefused marks an op the system refused with 429.
var errRefused = errors.New("refused (429)")

// loadClients is the most closed-loop clients and client connections a
// workload uses, and the number serve-hot uses: the host's two CPUs,
// matching the fleet's two simulation workers.
const loadClients = 2

// topology is one gcfleet in front of two gcserved backends, in process,
// behind loopback listeners. Each backend has one simulation worker, so the
// fleet's simulation concurrency is two; every other option keeps its cmd/
// flag default.
type topology struct {
	backends    []*server.Server
	backendHTTP []*httptest.Server
	fleet       *cluster.Fleet
	fleetHTTP   *httptest.Server
	client      *http.Client
}

func startTopology() (t *topology, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		s.Start()
		t.backends = append(t.backends, s)
		l := httptest.NewServer(s.Handler())
		t.backendHTTP = append(t.backendHTTP, l)
		urls = append(urls, l.URL)
	}
	if t.fleet, err = cluster.New(cluster.Options{Backends: urls}); err != nil {
		return nil, err
	}
	t.fleet.Start()
	t.fleetHTTP = httptest.NewServer(t.fleet.Handler())
	t.client = &http.Client{
		Timeout: time.Minute, // the servers' own default deadline
		Transport: &http.Transport{
			MaxConnsPerHost:     loadClients,
			MaxIdleConnsPerHost: loadClients,
		},
	}
	return t, nil
}

// close stops the fleet and drains the backends.
func (t *topology) close() {
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.fleetHTTP != nil {
		t.fleetHTTP.Close()
	}
	if t.fleet != nil {
		t.fleet.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range t.backends {
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "hwgcbench: backend shutdown:", err)
		}
	}
	for _, l := range t.backendHTTP {
		l.Close()
	}
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (t *topology) do(method, url string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

func (t *topology) collect(body []byte) (reply, error) {
	return t.do(http.MethodPost, t.fleetURL()+"/v1/collect", body)
}

func (t *topology) fleetURL() string { return t.fleetHTTP.URL }

// expect turns a failed exchange or an unexpected status into the op's
// error.
func expect(r reply, err error, status int) error {
	switch {
	case err != nil:
		return err
	case r.status == http.StatusTooManyRequests:
		return errRefused
	case r.status != status:
		return fmt.Errorf("HTTP %d, want %d: %s", r.status, status, bytes.TrimSpace(r.body))
	}
	return nil
}

// scrape reads the unlabelled samples of a Prometheus text page: the _sum,
// _count and _total series the per-layer metrics are computed from.
func (t *topology) scrape(base string) (map[string]float64, error) {
	r, err := t.do(http.MethodGet, base+"/metrics", nil)
	if err := expect(r, err, http.StatusOK); err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// counters is one scrape of the fleet and the sum over the backends.
type counters struct{ backends, fleet map[string]float64 }

func (t *topology) counters() (counters, error) {
	c := counters{backends: map[string]float64{}}
	for _, l := range t.backendHTTP {
		m, err := t.scrape(l.URL)
		if err != nil {
			return c, err
		}
		for k, v := range m {
			c.backends[k] += v
		}
	}
	var err error
	c.fleet, err = t.scrape(t.fleetURL())
	return c, err
}

// meanDelta is Δsum/Δcount of a summary between two scrapes, in ms.
func meanDelta(before, after map[string]float64, summary string) float64 {
	return 1e3 * ratio(after[summary+"_sum"]-before[summary+"_sum"], after[summary+"_count"]-before[summary+"_count"])
}

// referenceBody is the response a server must return for in, computed in
// process exactly as gcserved computes it: NewCollectResponse + Encode.
func referenceBody(in simInput) ([]byte, error) {
	resp, err := hwgc.NewCollectResponse(in.request())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in, err)
	}
	var b bytes.Buffer
	if err := resp.Encode(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func collectBody(in simInput) ([]byte, error) {
	req := in.request()
	return json.Marshal(&req)
}

// serveHotKeys is the size of serve-hot's key set: the 27 bench × cores
// shapes over three seeds, cut to 64 keys.
const serveHotKeys = 64

var serveCores = []int{4, 8, 16}

// serveShapes is the number of bench × cores shapes of the serve-* mixes.
func serveShapes() int { return len(hwgc.Workloads()) * len(serveCores) }

// serveInput is input i of a serve-* stream: the benchmark varies fastest,
// then the core count, and every input has its own seed.
func serveInput(o options, stream, i int) simInput {
	benches := hwgc.Workloads()
	return simInput{
		bench: benches[i%len(benches)],
		seed:  opSeed(o.seed, stream, i),
		cfg:   hwgc.Config{Cores: serveCores[(i/len(benches))%len(serveCores)]},
	}
}

// hotFixture serves a warmed key set: every request is a cache hit, so an op
// measures the fleet hop, decode, canonicalization, key and cache lookup
// with no simulation. Every body must equal its in-process reference.
type hotFixture struct {
	topo   *topology
	in     []simInput
	bodies [][]byte // request bodies
	refs   [][]byte // expected response bodies
	owner  []string // base URL of the backend that served each key
	hits   atomic.Int64
	before counters
}

func setupServeHot(o options) (fixture, error) {
	n := o.inputs(serveHotKeys)
	f := &hotFixture{
		in:     make([]simInput, n),
		bodies: make([][]byte, n),
		refs:   make([][]byte, n),
		owner:  make([]string, n),
	}
	err := parallel(n, func(i int) (err error) {
		f.in[i] = serveInput(o, streamHotKeys, i)
		f.in[i].seed = opSeed(o.seed, streamHotKeys, i/serveShapes())
		if f.bodies[i], err = collectBody(f.in[i]); err != nil {
			return err
		}
		f.refs[i], err = referenceBody(f.in[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	if f.topo, err = startTopology(); err != nil {
		return nil, err
	}
	backendURL := make(map[string]string)
	for _, b := range f.topo.fleet.Backends() {
		backendURL[b.ID()] = b.BaseURL()
	}
	err = parallel(n, func(k int) error {
		r, err := f.topo.collect(f.bodies[k])
		if err := f.check(k, r, err); err != nil {
			return fmt.Errorf("warming: %w", err)
		}
		f.owner[k] = backendURL[r.header.Get("X-Fleet-Backend")]
		return nil
	})
	if err == nil {
		f.before, err = f.topo.counters()
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *hotFixture) clients() int { return loadClients }
func (f *hotFixture) passLen() int { return 0 }
func (f *hotFixture) close()       { f.topo.close() }

func (f *hotFixture) check(k int, r reply, err error) error {
	if err := expect(r, err, http.StatusOK); err != nil {
		return fmt.Errorf("%s: %w", f.in[k], err)
	}
	if !bytes.Equal(r.body, f.refs[k]) {
		return fmt.Errorf("%s: body differs from the in-process reference", f.in[k])
	}
	return nil
}

func (f *hotFixture) op(tr *tracer, parent, c, seq int) error {
	k := seq % len(f.bodies)
	var (
		r   reply
		err error
	)
	tr.do(spanRequest, parent, c, func() error {
		r, err = f.topo.collect(f.bodies[k])
		return err
	})
	if r.header.Get("X-Cache") == "HIT" {
		f.hits.Add(1)
	}
	return f.check(k, r, err)
}

func (f *hotFixture) finish(tr *tracer, r *report) ([]int, error) {
	if tr == nil {
		return nil, nil
	}
	after, err := f.topo.counters()
	if err != nil {
		return nil, err
	}
	servingLayers(r, f.before, after, int(f.hits.Load()))

	// The proxy hop: the same key stream, from the same number of clients,
	// sent straight to each key's owner for a fifth of the window, against
	// the via-fleet median.
	var (
		mu     sync.Mutex
		direct []float64
		next   atomic.Int64
	)
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second) / 5))
	err = parallel(loadClients, func(int) error {
		for time.Now().Before(deadline) {
			k := int(next.Add(1)-1) % len(f.bodies)
			t0 := time.Now()
			rep, err := f.topo.do(http.MethodPost, f.owner[k]+"/v1/collect", f.bodies[k])
			if err := f.check(k, rep, err); err != nil {
				return fmt.Errorf("direct sub-phase: %w", err)
			}
			mu.Lock()
			direct = append(direct, 1e3*time.Since(t0).Seconds())
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	viaFleet, _ := r.lat.percentile(0.5)
	r.layer("cluster.proxy_hop_us", 1e3*(viaFleet-median(direct)), "us")
	return nil, replayLayers(tr, r, f.in)
}

// servingLayers adds the serving tier's per-layer metrics from /metrics
// deltas over the window and the client's own counts.
func servingLayers(r *report, before, after counters, hits int) {
	ops := float64(r.tally.attempted)
	r.layer("cluster.service_ms", meanDelta(before.fleet, after.fleet, "gcfleet_request_seconds"), "ms")
	r.layer("server.service_ms", meanDelta(before.backends, after.backends, "gcserved_request_seconds"), "ms")
	r.layer("server.cache_hit_frac", ratio(float64(hits), ops), "fraction")
	r.layer("server.refused_frac", ratio(float64(r.tally.refused), ops), "fraction")
}

// replaySample is how many of a serving workload's requests are recomputed
// in process after the window.
const replaySample = 32

// spread returns up to k indexes spaced evenly over [0, n).
func spread(n, k int) []int {
	k = min(n, k)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

// replayLayers re-runs up to replaySample of a serving workload's inputs in
// process through the simulator's layers, so the simulator's per-layer
// metrics describe this workload's own requests.
func replayLayers(tr *tracer, r *report, in []simInput) error {
	var agg simAgg
	for _, i := range spread(len(in), replaySample) {
		root := tr.begin(spanReplay, noSpan, 0)
		st, ff, err := runSim(tr, root, 0, in[i])
		tr.end(root)
		if err != nil {
			return err
		}
		agg.add(st, ff)
	}
	return simLayers(r, tr.stats(), spanReplay, agg, agg)
}

// sampled holds the response bodies of a window's successful ops, for the
// fixed sample re-checked after it.
type sampled struct {
	mu     sync.Mutex
	bodies map[int][]byte // seq → response body
}

func (s *sampled) put(seq int, body []byte) {
	s.mu.Lock()
	if s.bodies == nil {
		s.bodies = make(map[int][]byte)
	}
	s.bodies[seq] = body
	s.mu.Unlock()
}

// seqs is the fixed sample: replaySample sequence numbers spaced evenly over
// the successful ops.
func (s *sampled) seqs() []int {
	all := make([]int, 0, len(s.bodies))
	for seq := range s.bodies {
		all = append(all, seq)
	}
	sort.Ints(all)
	out := make([]int, 0, replaySample)
	for _, i := range spread(len(all), replaySample) {
		out = append(out, all[i])
	}
	return out
}

// verify recomputes the sampled ops' responses in process. It returns the
// ops whose body differs, the sampled inputs, and the median in-process
// NewCollectResponse+Encode time in ms.
func (s *sampled) verify(input func(seq int) simInput) (wrong []int, in []simInput, collectMs float64, err error) {
	var times []float64
	for _, seq := range s.seqs() {
		p := input(seq)
		t0 := time.Now()
		ref, err := referenceBody(p)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, 1e3*time.Since(t0).Seconds())
		if !bytes.Equal(s.bodies[seq], ref) {
			wrong = append(wrong, seq)
		}
		in = append(in, p)
	}
	return wrong, in, median(times), nil
}

// coldFixture sends every request with a fresh seed, so nothing is ever
// cached: each op takes the synchronous miss path through admission, the
// queue, build + simulate and encode.
type coldFixture struct {
	topo   *topology
	o      options
	out    sampled
	hits   atomic.Int64
	before counters
}

func setupServeCold(o options) (fixture, error) {
	topo, err := startTopology()
	if err != nil {
		return nil, err
	}
	f := &coldFixture{topo: topo, o: o}
	// Warm-up: one request per bench × cores shape, on seeds the window
	// never uses, so lazy set-up and connection pools are done before timing.
	err = parallel(o.inputs(serveShapes()), func(i int) error {
		body, err := collectBody(serveInput(o, streamColdWarm, i))
		if err != nil {
			return err
		}
		r, err := topo.collect(body)
		if err := expect(r, err, http.StatusOK); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	if err == nil {
		f.before, err = topo.counters()
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// clients is 1: each backend has a single simulation worker, so with two
// clients whether a request queued behind the other client's depended on
// where content-key routing sent both, and that lottery widened the
// run-to-run spread of the latency percentiles to 25% while the throughput
// stayed within it.
func (f *coldFixture) clients() int { return 1 }
func (f *coldFixture) passLen() int { return 0 }
func (f *coldFixture) close()       { f.topo.close() }

func (f *coldFixture) input(seq int) simInput { return serveInput(f.o, streamColdWindow, seq) }

func (f *coldFixture) op(tr *tracer, parent, c, seq int) error {
	in := f.input(seq)
	body, err := collectBody(in)
	if err != nil {
		return err
	}
	var r reply
	tr.do(spanRequest, parent, c, func() error {
		r, err = f.topo.collect(body)
		return err
	})
	if err := expect(r, err, http.StatusOK); err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	if r.header.Get("X-Cache") == "HIT" {
		f.hits.Add(1)
	}
	f.out.put(seq, r.body)
	return nil
}

func (f *coldFixture) finish(tr *tracer, r *report) ([]int, error) {
	wrong, in, collectMs, err := f.out.verify(f.input)
	if err != nil || tr == nil {
		return wrong, err
	}
	after, err := f.topo.counters()
	if err != nil {
		return nil, err
	}
	servingLayers(r, f.before, after, int(f.hits.Load()))
	r.layer("hwgc.collect_ms", collectMs, "ms")
	r.layer("server.queue_wait_ms", meanDelta(f.before.backends, after.backends, "gcserved_request_seconds")-collectMs, "ms")
	return wrong, replayLayers(tr, r, in)
}
