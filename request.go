package hwgc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// This file defines the canonical request/response encoding shared by the
// gcserved HTTP service (internal/server), the gcload load generator and
// cmd/gcsim's -json mode. Because every simulation is deterministic, a
// canonicalized request identifies its result exactly: the same canonical
// bytes always produce the same response bytes, which is what makes the
// server's content-addressed result cache sound.

// CollectRequest describes one collection to run: either a named benchmark
// (Bench) or an inline custom object-graph plan (Plan), at a given scale,
// seed and coprocessor configuration. The zero values of Scale, Seed and
// Config select the library defaults (scale 1, seed 42, a 1-core
// coprocessor with the calibrated memory model).
type CollectRequest struct {
	Bench  string `json:",omitempty"`
	Plan   *Plan  `json:",omitempty"`
	Scale  int    `json:",omitempty"`
	Seed   int64  `json:",omitempty"`
	Config Config
	Verify bool `json:",omitempty"`
}

// Canonicalize validates r and resolves every defaulted field in place, so
// that two requests meaning the same simulation compare (and serialize)
// identically. Exactly one of Bench and Plan must be set. For plan requests
// Scale and Seed are forced to zero — they do not influence the build.
func (r *CollectRequest) Canonicalize() error {
	switch {
	case r.Bench == "" && r.Plan == nil:
		return fmt.Errorf("hwgc: request needs a benchmark name or a plan")
	case r.Bench != "" && r.Plan != nil:
		return fmt.Errorf("hwgc: request has both a benchmark name and a plan")
	case r.Plan != nil:
		if err := r.Plan.Validate(); err != nil {
			return err
		}
		r.Scale, r.Seed = 0, 0
	default:
		spec, err := Workload(r.Bench)
		if err != nil {
			return err
		}
		if r.Scale < 1 {
			r.Scale = 1
		}
		if err := spec.CheckScale(r.Scale); err != nil {
			return err
		}
		if r.Seed == 0 {
			r.Seed = DefaultSeed
		}
	}
	r.Config = r.Config.WithDefaults()
	return r.Config.Validate()
}

// CanonicalJSON returns the canonical byte encoding of r, canonicalizing it
// in place first. The encoding is deterministic: field order is fixed and
// all defaults are resolved.
func (r *CollectRequest) CanonicalJSON() ([]byte, error) {
	if err := r.Canonicalize(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// KeyBytes returns the content address of a canonical request encoding:
// the hex SHA-256 of the bytes. It is the one key derivation shared by the
// server's result cache and the fleet's consistent-hash router, so both
// tiers agree on which backend owns which cached result.
func KeyBytes(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Key returns the content address of r: the hex SHA-256 of its canonical
// JSON encoding. Requests that mean the same simulation share a key.
func (r *CollectRequest) Key() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return KeyBytes(b), nil
}

// Run canonicalizes r and executes the simulation it describes.
func (r *CollectRequest) Run() (RunResult, error) {
	if err := r.Canonicalize(); err != nil {
		return RunResult{}, err
	}
	if r.Plan != nil {
		return RunPlan("plan", r.Plan, r.Config, r.Verify)
	}
	return RunBenchmark(r.Bench, r.Scale, r.Seed, r.Config, r.Verify)
}

// SweepRequest describes a core-count sweep of one named benchmark (the
// measurement behind the paper's Figures 5/6 and Table I). An empty Cores
// list selects PaperCoreCounts.
type SweepRequest struct {
	Bench  string
	Cores  []int `json:",omitempty"`
	Scale  int   `json:",omitempty"`
	Seed   int64 `json:",omitempty"`
	Config Config
	Verify bool `json:",omitempty"`
}

// MaxSweepPoints bounds the number of core counts one sweep may request.
const MaxSweepPoints = 64

// Canonicalize validates r and resolves defaulted fields in place.
func (r *SweepRequest) Canonicalize() error {
	if r.Bench == "" {
		return fmt.Errorf("hwgc: sweep request needs a benchmark name")
	}
	spec, err := Workload(r.Bench)
	if err != nil {
		return err
	}
	if len(r.Cores) == 0 {
		r.Cores = append([]int(nil), PaperCoreCounts...)
	}
	if len(r.Cores) > MaxSweepPoints {
		return fmt.Errorf("hwgc: sweep requests %d core counts, max %d", len(r.Cores), MaxSweepPoints)
	}
	if r.Scale < 1 {
		r.Scale = 1
	}
	if err := spec.CheckScale(r.Scale); err != nil {
		return err
	}
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}
	r.Config = r.Config.WithDefaults()
	if err := r.Config.Validate(); err != nil {
		return err
	}
	for _, n := range r.Cores {
		c := r.Config
		c.Cores = n
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CanonicalJSON returns the canonical byte encoding of r, canonicalizing it
// in place first.
func (r *SweepRequest) CanonicalJSON() ([]byte, error) {
	if err := r.Canonicalize(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// Key returns the content address of r (hex SHA-256 of the canonical JSON).
func (r *SweepRequest) Key() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return KeyBytes(b), nil
}

// Points canonicalizes r and expands it into its collect points, one per
// core count, in order: the sweep's Bench, Scale, Seed, Config and Verify
// with Config.Cores set to the point's core count. A point's Key and
// Canonical bytes are those of the same collect posted to /v1/collect, so
// a sweep point shares that collect's cache entry, job and fleet owner.
func (r *SweepRequest) Points() ([]SweepPoint, error) {
	if err := r.Canonicalize(); err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(r.Cores))
	for i, n := range r.Cores {
		req := CollectRequest{Bench: r.Bench, Scale: r.Scale, Seed: r.Seed, Config: r.Config, Verify: r.Verify}
		req.Config.Cores = n
		canonical, err := req.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		pts[i] = SweepPoint{Index: i, Key: KeyBytes(canonical), Canonical: canonical, Req: req}
	}
	return pts, nil
}

// CollectResponse is the result encoding for one collection, produced
// identically by the gcserved service (POST /v1/collect) and by
// cmd/gcsim -json, so scripts and the service speak one format. Key is the
// canonical request hash (the server's cache key); Bench, Scale and Seed
// echo the canonicalized request (Bench is "plan" for plan requests; Scale
// and Seed are omitted for them).
type CollectResponse struct {
	Key    string
	Bench  string
	Scale  int   `json:",omitempty"`
	Seed   int64 `json:",omitempty"`
	Result RunResult
}

// NewCollectResponse runs the (possibly non-canonical) request and wraps
// the result in the shared response encoding.
func NewCollectResponse(req CollectRequest) (*CollectResponse, error) {
	key, err := req.Key() // canonicalizes req in place
	if err != nil {
		return nil, err
	}
	res, err := req.Run()
	if err != nil {
		return nil, err
	}
	bench := req.Bench
	if req.Plan != nil {
		bench = "plan"
	}
	return &CollectResponse{Key: key, Bench: bench, Scale: req.Scale, Seed: req.Seed, Result: res}, nil
}

// Encode writes the response in the service's wire format: indented JSON
// with a trailing newline. The output is deterministic byte for byte.
func (r *CollectResponse) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SweepResponse is the result encoding for one core sweep (POST /v1/sweep).
type SweepResponse struct {
	Key     string
	Bench   string
	Cores   []int
	Scale   int
	Seed    int64
	Results []RunResult
}

// NewSweepResponse runs the (possibly non-canonical) sweep request's
// points one after another and wraps the results in the shared response
// encoding.
func NewSweepResponse(req SweepRequest) (*SweepResponse, error) {
	pts, err := req.Points()
	if err != nil {
		return nil, err
	}
	results := make([]RunResult, len(pts))
	for i := range pts {
		if results[i], err = pts[i].Req.Run(); err != nil {
			return nil, fmt.Errorf("hwgc: sweep %s at %d cores: %w", req.Bench, req.Cores[i], err)
		}
	}
	return req.Response(results)
}

// Response assembles the reply of the canonical sweep r from its points'
// results, in core order. Key is the sweep's own content key. Every
// producer of a SweepResponse goes through here, so the library, gcserved
// and gcfleet cannot drift apart.
func (r *SweepRequest) Response(results []RunResult) (*SweepResponse, error) {
	key, err := r.Key()
	if err != nil {
		return nil, err
	}
	if len(results) != len(r.Cores) {
		return nil, fmt.Errorf("hwgc: sweep has %d core counts but %d results", len(r.Cores), len(results))
	}
	return &SweepResponse{Key: key, Bench: r.Bench, Cores: r.Cores, Scale: r.Scale, Seed: r.Seed, Results: results}, nil
}

// ResponseBody assembles and encodes the reply of the canonical sweep r
// from its points' /v1/collect reply bodies, in core order: the serving
// tiers run the points as collects and answer the sweep with these bytes.
func (r *SweepRequest) ResponseBody(pointBodies [][]byte) ([]byte, error) {
	results := make([]RunResult, len(pointBodies))
	for i, b := range pointBodies {
		var cr CollectResponse
		if err := json.Unmarshal(b, &cr); err != nil {
			return nil, fmt.Errorf("hwgc: decoding sweep point %d: %w", i, err)
		}
		results[i] = cr.Result
	}
	resp, err := r.Response(results)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode writes the response in the service's wire format (indented JSON,
// trailing newline, deterministic byte for byte).
func (r *SweepResponse) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
