// Command gcload drives a running gcserved instance with concurrent
// POST /v1/collect (or /v1/sweep) traffic and reports achieved throughput,
// status-code counts, latency percentiles and response byte-identity — so
// "serves heavy traffic" is a measured claim, not a slogan.
//
// With -sweep <spec.json>, gcload instead submits the SweepSpace spec to
// POST /v1/sweeps (gcserved or gcfleet), follows the sweep's SSE event
// stream — reconnecting with Last-Event-ID if the stream drops — and
// reports submit latency, completion time, and frontier-convergence
// latency: how long after submit the ranked frontier last changed. The
// final frontier is printed ranked.
//
// Each in-flight request rotates through -distinct seed variants; with the
// default settings repeats of each variant verify the server's result cache
// returns byte-identical bodies. 429 responses (deliberate backpressure)
// are counted separately and are not errors.
//
// With -batch N, each request is instead a POST /v1/batch of N mixed
// collect/sweep items (a scatter-gather experiment against gcserved or
// gcfleet). Per-item 429s are tolerated like single-request 429s; response
// identity is checked only for fully-successful batches, whose encodings
// are deterministic.
//
// With -sweepreq, each request is a POST /v1/sweep core sweep, which both
// gcserved and gcfleet run as one collect per core count.
//
// With -async, each logical request is instead submitted as a durable
// collect job (POST /v1/jobs, optionally with -class) and its result
// polled every -poll until done. The report then carries two separate
// distributions: submit latency (how fast the server durably accepts work)
// and end-to-end latency (submit through completed result). -async
// excludes -batch and -sweepreq: jobs are collects only.
//
// Usage:
//
// With -barrier <none|satb|incupdate>, every generated request becomes a
// concurrent-collection scenario: the built-in churn mutator runs on the
// coprocessor's mutator port under the selected write barrier (-mutops
// bounds its operation budget; 0 means effectively unbounded). Sweep spec
// files passed via -sweep flow through verbatim, so BarrierMode axes in the
// spec JSON reach the server unchanged.
//
// With -numa <domains>, every generated request runs on a NUMA machine with
// that many memory domains (-placement selects naive or locality-aware
// tospace placement); with -cache <sets>, the private-L1/shared-L2 cache
// model is enabled with that many L1 sets. Both compose with -barrier, so a
// single gcload invocation can exercise the full concurrent + hierarchy
// configuration space against a server.
//
// Usage:
//
//	gcload [-url http://localhost:8080] [-n 1000] [-c 100] [-qps 0]
//	       [-bench jlisp] [-cores 8] [-scale 1] [-distinct 8]
//	       [-barrier M] [-mutops N] [-numa D] [-placement P] [-cache S]
//	       [-sweepreq] [-batch 0] [-async] [-class C] [-poll 25ms]
//	       [-sweep spec.json] [-timeout 30s]
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hwgc"
)

type loadConfig struct {
	url       string
	requests  int
	workers   int
	qps       int
	bench     string
	cores     int
	scale     int
	distinct  int
	barrier   string // write-barrier mode; non-empty turns requests concurrent
	mutops    int64  // concurrent mutator operation budget (0 = unbounded)
	numa      int    // NUMA domain count; positive enables the NUMA model
	placement string // tospace placement for -numa ("naive" or "local")
	cache     int    // L1 sets; positive enables the cache model
	sweepReq  bool
	sweepSpec string // path to a SweepSpace JSON file (-sweep mode)
	batch     int
	async     bool
	class     string
	poll      time.Duration
	timeout   time.Duration
}

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.url, "url", "http://localhost:8080", "gcserved base URL")
	flag.IntVar(&cfg.requests, "n", 1000, "total requests to send")
	flag.IntVar(&cfg.workers, "c", 100, "concurrent in-flight requests")
	flag.IntVar(&cfg.qps, "qps", 0, "target request rate (0 = as fast as possible)")
	flag.StringVar(&cfg.bench, "bench", "jlisp", "benchmark workload to request")
	flag.IntVar(&cfg.cores, "cores", 8, "coprocessor cores per request")
	flag.IntVar(&cfg.scale, "scale", 1, "workload scale per request")
	flag.IntVar(&cfg.distinct, "distinct", 8, "distinct seed variants to rotate through")
	flag.StringVar(&cfg.barrier, "barrier", "", `write-barrier mode for generated requests ("none", "satb", "incupdate"); any value turns on the built-in concurrent mutator`)
	flag.Int64Var(&cfg.mutops, "mutops", 0, "concurrent mutator operation budget (0 with -barrier = effectively unbounded)")
	flag.IntVar(&cfg.numa, "numa", 0, "NUMA domain count for generated requests (0 = uniform memory)")
	flag.StringVar(&cfg.placement, "placement", "", `tospace placement with -numa ("naive" or "local")`)
	flag.IntVar(&cfg.cache, "cache", 0, "L1 cache sets for generated requests (0 = no cache model)")
	flag.BoolVar(&cfg.sweepReq, "sweepreq", false, "POST /v1/sweep instead of /v1/collect")
	flag.StringVar(&cfg.sweepSpec, "sweep", "", "submit this SweepSpace spec file to POST /v1/sweeps and report frontier convergence")
	flag.IntVar(&cfg.batch, "batch", 0, "POST /v1/batch with this many mixed items per request (0 = single requests)")
	flag.BoolVar(&cfg.async, "async", false, "submit jobs via POST /v1/jobs and poll each result to completion")
	flag.StringVar(&cfg.class, "class", "", "job class for -async submissions (empty = server default)")
	flag.DurationVar(&cfg.poll, "poll", 25*time.Millisecond, "result poll interval in -async mode")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request client timeout (in -async mode also the per-job completion deadline)")
	flag.Parse()

	if cfg.sweepSpec != "" {
		ok, err := runSpaceMode(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcload:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcload:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if rep.failed() {
		os.Exit(1)
	}
}

// report aggregates the outcome of one load run.
type report struct {
	cfg       loadConfig
	elapsed   time.Duration
	statuses  map[int]int
	transport int // client-side errors (dial, timeout, ...)
	mismatch  int // cache responses that were not byte-identical
	latencies []time.Duration
	bytes     int64

	// Batch mode (-batch N): per-item tallies across all batches.
	itemsOK     int
	items429    int
	itemsFailed int // any per-item status other than 200 and 429

	// Async mode (-async): submit-only latencies, kept separate from the
	// end-to-end latencies above so queueing/service time is not conflated
	// with how fast the server durably accepts work.
	submitLats []time.Duration
}

func (r *report) failed() bool {
	if r.transport > 0 || r.mismatch > 0 || r.itemsFailed > 0 {
		return true
	}
	for code, n := range r.statuses {
		// 429 is deliberate backpressure, not a failure; 207 is a batch
		// with per-item failures, judged by itemsFailed above.
		if n > 0 && code != http.StatusOK && code != http.StatusTooManyRequests &&
			code != http.StatusMultiStatus {
			return true
		}
	}
	return false
}

func (r *report) percentile(q float64) time.Duration { return percentileOf(r.latencies, q) }

// percentileOf reads the q-quantile from an ascending-sorted sample.
func percentileOf(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	i := int(q*float64(len(lats))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(lats) {
		i = len(lats) - 1
	}
	return lats[i]
}

func (r *report) print(w io.Writer) {
	endpoint := "/v1/collect"
	if r.cfg.sweepReq {
		endpoint = "/v1/sweep"
	}
	if r.cfg.batch > 0 {
		endpoint = fmt.Sprintf("/v1/batch (%d items)", r.cfg.batch)
	}
	if r.cfg.async {
		endpoint = "/v1/jobs (async"
		if r.cfg.class != "" {
			endpoint += " class=" + r.cfg.class
		}
		endpoint += ")"
	}
	scenario := ""
	if r.cfg.barrier != "" || r.cfg.mutops > 0 {
		scenario = fmt.Sprintf(" barrier=%s mutops=%d", r.cfg.config().BarrierMode, r.cfg.config().MutatorOps)
	}
	if r.cfg.numa > 0 {
		placement := r.cfg.placement
		if placement == "" {
			placement = "naive"
		}
		scenario += fmt.Sprintf(" numa=%d placement=%s", r.cfg.numa, placement)
	}
	if r.cfg.cache > 0 {
		scenario += fmt.Sprintf(" cache=%d", r.cfg.cache)
	}
	fmt.Fprintf(w, "gcload: POST %s bench=%s cores=%d scale=%d distinct-seeds=%d%s\n",
		endpoint, r.cfg.bench, r.cfg.cores, r.cfg.scale, r.cfg.distinct, scenario)
	secs := r.elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(w, "requests %d in %.2fs -> %.1f req/s, concurrency %d, %.1f MiB read\n",
		r.cfg.requests, r.elapsed.Seconds(), float64(r.cfg.requests)/secs,
		r.cfg.workers, float64(r.bytes)/(1<<20))
	codes := make([]int, 0, len(r.statuses))
	for c := range r.statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintf(w, "status  ")
	for _, c := range codes {
		fmt.Fprintf(w, " %d x%d", c, r.statuses[c])
	}
	if r.transport > 0 {
		fmt.Fprintf(w, " transport-errors x%d", r.transport)
	}
	fmt.Fprintln(w)
	if r.cfg.batch > 0 {
		fmt.Fprintf(w, "items    ok x%d  429 x%d  failed x%d\n", r.itemsOK, r.items429, r.itemsFailed)
	}
	if r.mismatch > 0 {
		fmt.Fprintf(w, "identity FAILED: %d responses differed from the first response for their request\n", r.mismatch)
	} else {
		fmt.Fprintf(w, "identity OK: repeated requests returned byte-identical responses\n")
	}
	if len(r.submitLats) > 0 {
		fmt.Fprintf(w, "submit   p50 %s  p95 %s  p99 %s  max %s\n",
			percentileOf(r.submitLats, 0.50).Round(time.Microsecond),
			percentileOf(r.submitLats, 0.95).Round(time.Microsecond),
			percentileOf(r.submitLats, 0.99).Round(time.Microsecond),
			r.submitLats[len(r.submitLats)-1].Round(time.Microsecond))
	}
	if len(r.latencies) > 0 {
		label := "latency "
		if r.cfg.async {
			label = "e2e     "
		}
		fmt.Fprintf(w, "%s p50 %s  p95 %s  p99 %s  max %s\n", label,
			r.percentile(0.50).Round(time.Microsecond),
			r.percentile(0.95).Round(time.Microsecond),
			r.percentile(0.99).Round(time.Microsecond),
			r.latencies[len(r.latencies)-1].Round(time.Microsecond))
	}
}

// config returns the coprocessor configuration every generated request
// carries. With -barrier (or -mutops) set the request becomes a concurrent-
// collection scenario: the built-in churn mutator runs on the mutator port
// under the selected write barrier. -numa and -cache switch on the memory
// hierarchy. Validation happens downstream when the request canonicalizes,
// so a bad -barrier or -placement value fails fast with the library's own
// error.
func (cfg *loadConfig) config() hwgc.Config {
	c := hwgc.Config{Cores: cfg.cores, MutatorOps: cfg.mutops}
	if cfg.barrier != "" {
		c.BarrierMode = hwgc.BarrierMode(cfg.barrier)
		if c.MutatorOps == 0 {
			c.MutatorOps = 1 << 40 // churn for the whole collection
		}
	}
	if cfg.numa > 0 || cfg.placement != "" {
		c.NUMADomains = cfg.numa
		c.NUMAPlacement = hwgc.NUMAPlacement(cfg.placement)
	}
	if cfg.cache > 0 {
		c.L1Sets = cfg.cache
	}
	return c
}

// body returns the request body for seed variant v. Bodies are canonical
// requests, so the server's cache key for variant v is stable.
func (cfg *loadConfig) body(v int) ([]byte, error) {
	if cfg.batch > 0 {
		return cfg.batchBody(v)
	}
	if cfg.async {
		return cfg.asyncBody(v)
	}
	seed := int64(v + 1)
	if cfg.sweepReq {
		req := hwgc.SweepRequest{Bench: cfg.bench, Scale: cfg.scale, Seed: seed,
			Config: cfg.config()}
		return req.CanonicalJSON()
	}
	req := hwgc.CollectRequest{Bench: cfg.bench, Scale: cfg.scale, Seed: seed,
		Config: cfg.config()}
	return req.CanonicalJSON()
}

// asyncBody wraps the canonical collect for seed variant v in the
// POST /v1/jobs submit envelope. The inner request is canonicalized first
// so every worker hitting the same variant submits identical bytes and
// dedupes onto one job.
func (cfg *loadConfig) asyncBody(v int) ([]byte, error) {
	req := hwgc.CollectRequest{Bench: cfg.bench, Scale: cfg.scale, Seed: int64(v + 1),
		Config: cfg.config()}
	if _, err := req.Key(); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Collect *hwgc.CollectRequest
		Class   string `json:",omitempty"`
	}{&req, cfg.class})
}

// batchBody builds the mixed collect/sweep batch for seed variant v: every
// fourth item is a two-core sweep, the rest are collects, each with a seed
// unique to (variant, item) so distinct variants occupy distinct cache
// entries end to end.
func (cfg *loadConfig) batchBody(v int) ([]byte, error) {
	var req hwgc.BatchRequest
	for i := 0; i < cfg.batch; i++ {
		seed := int64(v*cfg.batch + i + 1)
		if i%4 == 3 {
			req.Items = append(req.Items, hwgc.BatchItem{Sweep: &hwgc.SweepRequest{
				Bench: cfg.bench, Scale: cfg.scale, Seed: seed,
				Cores: []int{1, cfg.cores}}})
		} else {
			req.Items = append(req.Items, hwgc.BatchItem{Collect: &hwgc.CollectRequest{
				Bench: cfg.bench, Scale: cfg.scale, Seed: seed,
				Config: cfg.config()}})
		}
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	for i := range req.Items {
		if _, _, err := req.Items[i].Points(); err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return json.Marshal(req)
}

func runLoad(cfg loadConfig) (*report, error) {
	if cfg.requests < 1 || cfg.workers < 1 {
		return nil, fmt.Errorf("need -n >= 1 and -c >= 1")
	}
	if cfg.distinct < 1 {
		cfg.distinct = 1
	}
	if cfg.workers > cfg.requests {
		cfg.workers = cfg.requests
	}
	if cfg.batch < 0 || cfg.batch > hwgc.MaxBatchItems {
		return nil, fmt.Errorf("-batch must be in [0, %d]", hwgc.MaxBatchItems)
	}
	if cfg.async && cfg.batch > 0 {
		return nil, fmt.Errorf("-async and -batch are mutually exclusive")
	}
	if cfg.async && cfg.sweepReq {
		return nil, fmt.Errorf("-async submits collect jobs only; drop -async to POST sweeps to /v1/sweep")
	}
	if cfg.class != "" && !cfg.async {
		return nil, fmt.Errorf("-class requires -async")
	}
	if cfg.async && cfg.poll <= 0 {
		return nil, fmt.Errorf("-async needs -poll > 0")
	}
	endpoint := cfg.url + "/v1/collect"
	if cfg.sweepReq {
		endpoint = cfg.url + "/v1/sweep"
	}
	if cfg.batch > 0 {
		endpoint = cfg.url + "/v1/batch"
	}
	if cfg.async {
		endpoint = cfg.url + "/v1/jobs"
	}
	bodies := make([][]byte, cfg.distinct)
	for v := range bodies {
		b, err := cfg.body(v)
		if err != nil {
			return nil, err
		}
		bodies[v] = b
	}

	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.workers,
			MaxIdleConnsPerHost: cfg.workers,
		},
	}

	// Optional QPS pacing: a shared token channel fed at the target rate.
	var pace chan struct{}
	if cfg.qps > 0 {
		pace = make(chan struct{})
		interval := time.Second / time.Duration(cfg.qps)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		go func() {
			for range tick.C {
				select {
				case pace <- struct{}{}:
				default: // nobody waiting; don't bank tokens
				}
			}
		}()
	}

	rep := &report{cfg: cfg, statuses: make(map[int]int)}
	var (
		next      atomic.Int64 // next request index to issue
		mu        sync.Mutex   // guards rep + firstSums
		firstSums = make(map[int][32]byte, cfg.distinct)
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.requests {
					return
				}
				if pace != nil {
					<-pace
				}
				v := i % cfg.distinct
				if cfg.async {
					asyncRequest(cfg, client, endpoint, bodies[v], v, rep, &mu, firstSums)
					continue
				}
				t0 := time.Now()
				resp, err := client.Post(endpoint, "application/json", bytes.NewReader(bodies[v]))
				if err != nil {
					mu.Lock()
					rep.transport++
					mu.Unlock()
					continue
				}
				data, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)

				// Batch mode: tally per-item outcomes; a decode failure of
				// a 200/207 reply counts as a transport error.
				var br *hwgc.BatchResponse
				if rerr == nil && cfg.batch > 0 &&
					(resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusMultiStatus) {
					br, rerr = hwgc.DecodeBatchResponse(bytes.NewReader(data))
				}

				mu.Lock()
				if rerr != nil {
					rep.transport++
				} else {
					rep.statuses[resp.StatusCode]++
					rep.bytes += int64(len(data))
					rep.latencies = append(rep.latencies, lat)
					identical := resp.StatusCode == http.StatusOK
					if br != nil {
						for _, it := range br.Items {
							switch it.Status {
							case http.StatusOK:
								rep.itemsOK++
							case http.StatusTooManyRequests:
								rep.items429++
							default:
								rep.itemsFailed++
							}
						}
						// Deterministic encodings make fully-successful
						// batches byte-identical across repeats; batches
						// with transient 429s legitimately differ.
						identical = br.Failed == 0
					}
					if identical {
						sum := sha256.Sum256(data)
						if prev, ok := firstSums[v]; !ok {
							firstSums[v] = sum
						} else if prev != sum {
							rep.mismatch++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	sort.Slice(rep.latencies, func(a, b int) bool { return rep.latencies[a] < rep.latencies[b] })
	sort.Slice(rep.submitLats, func(a, b int) bool { return rep.submitLats[a] < rep.submitLats[b] })
	return rep, nil
}

// asyncRequest performs one -async exchange: durably submit the job, then
// poll its result endpoint until the job is terminal or the per-job
// deadline passes. The submit latency and the end-to-end latency go into
// separate distributions.
func asyncRequest(cfg loadConfig, client *http.Client, endpoint string, body []byte, v int,
	rep *report, mu *sync.Mutex, firstSums map[int][32]byte) {
	fail := func() {
		mu.Lock()
		rep.transport++
		mu.Unlock()
	}
	t0 := time.Now()
	resp, err := client.Post(endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		fail()
		return
	}
	_, rerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	submitLat := time.Since(t0)
	if rerr != nil {
		fail()
		return
	}
	loc := resp.Header.Get("Location")
	accepted := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted
	if !accepted || loc == "" {
		// Rejected before a job existed (400, 503, ...): the submit status
		// is the final outcome of this logical request.
		mu.Lock()
		rep.submitLats = append(rep.submitLats, submitLat)
		rep.statuses[resp.StatusCode]++
		mu.Unlock()
		return
	}
	resultURL := cfg.url + loc + "/result"
	deadline := t0.Add(cfg.timeout)
	for {
		r2, err := client.Get(resultURL)
		if err != nil {
			fail()
			return
		}
		data, rerr := io.ReadAll(r2.Body)
		r2.Body.Close()
		if rerr != nil {
			fail()
			return
		}
		if r2.StatusCode != http.StatusAccepted {
			e2e := time.Since(t0)
			mu.Lock()
			rep.submitLats = append(rep.submitLats, submitLat)
			rep.statuses[r2.StatusCode]++
			rep.bytes += int64(len(data))
			rep.latencies = append(rep.latencies, e2e)
			if r2.StatusCode == http.StatusOK {
				sum := sha256.Sum256(data)
				if prev, ok := firstSums[v]; !ok {
					firstSums[v] = sum
				} else if prev != sum {
					rep.mismatch++
				}
			}
			mu.Unlock()
			return
		}
		if time.Now().After(deadline) {
			// The job outlived the deadline; count it like a timed-out
			// request rather than hanging the worker forever.
			fail()
			return
		}
		time.Sleep(cfg.poll)
	}
}
