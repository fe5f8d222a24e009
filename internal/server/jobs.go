package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"hwgc"
	"hwgc/internal/events"
	"hwgc/internal/frontdoor"
	"hwgc/internal/jobs"
	"hwgc/internal/plan"
)

// onJobResult receives every job the tier finishes. Job IDs are the same
// content address the synchronous path uses as its cache key, so the body
// feeds the result cache and later requests for the same work hit it; a
// collection run here also feeds the scenario series, once.
func (s *Server) onJobResult(id string, body []byte, resp *hwgc.CollectResponse) {
	s.cache.Put(id, body)
	s.metrics.ObserveCollect(resp)
}

// jobListBody is the GET /v1/jobs response.
type jobListBody struct {
	Jobs []jobs.Info
}

// handleJobs serves POST /v1/jobs (canonicalize, content-address, submit)
// and GET /v1/jobs (list jobs; ?active=true restricts to non-terminal ones,
// which is what the elastic migration driver enumerates after a topology
// change). Submissions are idempotent — resubmitting the same request
// returns the existing job (200) instead of creating a new one (202).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/jobs", false, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			active := r.URL.Query().Get("active") == "true"
			frontdoor.WriteJSON(w, http.StatusOK, jobListBody{Jobs: s.jobs.List(active)})
			return
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "GET, POST")
			frontdoor.WriteError(w, http.StatusMethodNotAllowed, "%s requires GET or POST", r.URL.Path)
			return
		}
		var body jobs.SubmitRequest
		if !frontdoor.DecodeJSON(w, r, &body) {
			return
		}
		canonical, err := body.Canonical()
		if err != nil {
			frontdoor.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if body.Class != "" && !s.jobs.HasClass(body.Class) {
			frontdoor.WriteError(w, http.StatusBadRequest, "unknown job class %q", body.Class)
			return
		}
		if err := s.checkScale(body.Collect.Scale); err != nil {
			frontdoor.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		info, accepted, err := s.jobs.Submit(body.Class, canonical)
		switch {
		case errors.Is(err, jobs.ErrDraining):
			frontdoor.WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		case err != nil:
			frontdoor.WriteError(w, http.StatusInternalServerError, "submitting job: %v", err)
			return
		}
		code := http.StatusOK // deduped onto an existing job
		if accepted {
			code = http.StatusAccepted
		}
		w.Header().Set("Location", "/v1/jobs/"+info.ID)
		frontdoor.WriteJSON(w, code, info)
	})(w, r)
}

// handleJobByID routes /v1/jobs/{id}, /v1/jobs/{id}/result and
// /v1/jobs/{id}/events. Metric labels stay low-cardinality: the id is never
// part of the label.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id, sub, ok := frontdoor.SplitID(w, r, "/v1/jobs/")
	if !ok {
		return
	}
	switch sub {
	case "":
		s.instrument("/v1/jobs/{id}", false, func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				s.serveJobInfo(w, id)
			case http.MethodDelete:
				s.serveJobCancel(w, id)
			default:
				w.Header().Set("Allow", "GET, DELETE")
				frontdoor.WriteError(w, http.StatusMethodNotAllowed, "%s requires GET or DELETE", r.URL.Path)
			}
		})(w, r)
	case "result":
		s.instrument("/v1/jobs/{id}/result", false, func(w http.ResponseWriter, r *http.Request) {
			if !frontdoor.RequireGet(w, r) {
				return
			}
			s.serveJobResult(w, id)
		})(w, r)
	case "events":
		s.instrument("/v1/jobs/{id}/events", false, func(w http.ResponseWriter, r *http.Request) {
			if !frontdoor.RequireGet(w, r) {
				return
			}
			history, live, stop, err := s.jobs.Subscribe(id)
			if err != nil {
				frontdoor.WriteError(w, http.StatusNotFound, "no such job %q", id)
				return
			}
			defer stop()
			if err := events.Serve(w, r, history, live, s.draining); err != nil {
				frontdoor.WriteError(w, http.StatusInternalServerError, "%v", err)
			}
		})(w, r)
	case "checkpoint":
		s.instrument("/v1/jobs/{id}/checkpoint", false, func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				s.serveJobExport(w, r, id)
			case http.MethodPut:
				s.serveJobImport(w, r, id)
			case http.MethodDelete:
				s.serveJobRelease(w, id)
			default:
				w.Header().Set("Allow", "GET, PUT, DELETE")
				frontdoor.WriteError(w, http.StatusMethodNotAllowed, "%s requires GET, PUT or DELETE", r.URL.Path)
			}
		})(w, r)
	default:
		frontdoor.WriteError(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
	}
}

// maxCheckpointBytes bounds a PUT checkpoint body. Machine snapshots are a
// few MiB at the largest supported scale; well beyond that is corruption or
// abuse, not data.
const maxCheckpointBytes = 64 << 20

// exportWaitDefault/-Max bound how long GET /v1/jobs/{id}/checkpoint waits
// for a running job to reach its next snapshot boundary.
const (
	exportWaitDefault = 30 * time.Second
	exportWaitMax     = 2 * time.Minute
)

// importReceipt is the PUT /v1/jobs/{id}/checkpoint response: the adopted
// job's Info plus an echo of the imported position, which the migration
// driver verifies against what it exported before releasing the source.
type importReceipt struct {
	Info     jobs.Info
	Accepted bool // false: deduped onto an existing local job
	Cycle    int64
	SnapCRC  uint32 `json:",omitempty"`
}

// serveJobExport captures the job's current position as a portable envelope
// (GET /v1/jobs/{id}/checkpoint). A running job is preempted at its next
// snapshot boundary first; ?wait= bounds that wait. The export does not
// mutate the job — it keeps running here until DELETE releases it.
func (s *Server) serveJobExport(w http.ResponseWriter, r *http.Request, id string) {
	wait := exportWaitDefault
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			frontdoor.WriteError(w, http.StatusBadRequest, "invalid wait %q: want a positive duration", v)
			return
		}
		wait = min(d, exportWaitMax)
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	env, err := s.jobs.Export(ctx, id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		frontdoor.WriteError(w, http.StatusNotFound, "no such job %q", id)
	case errors.Is(err, jobs.ErrTerminal):
		frontdoor.WriteError(w, http.StatusConflict, "job %s is not exportable: %v", id, err)
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.opts.RetryAfter)))
		frontdoor.WriteError(w, http.StatusServiceUnavailable, "job %s did not reach a checkpoint boundary within %s", id, wait)
	case err != nil:
		frontdoor.WriteError(w, http.StatusInternalServerError, "exporting job: %v", err)
	default:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(env)
	}
}

// serveJobImport adopts a foreign checkpoint envelope as a local job
// (PUT /v1/jobs/{id}/checkpoint). Idempotent by content key: importing onto
// an existing job returns 200 with the existing Info; a fresh adoption
// returns 201. Corrupt, truncated or inconsistent envelopes are rejected
// with 400 before any local state changes.
func (s *Server) serveJobImport(w http.ResponseWriter, r *http.Request, id string) {
	r.Body = http.MaxBytesReader(w, r.Body, maxCheckpointBytes)
	var env jobs.ExportedJob
	if err := plan.DecodeStrict(r.Body, &env); err != nil {
		frontdoor.WriteError(w, http.StatusBadRequest, "decoding checkpoint: %v", err)
		return
	}
	if env.ID != id {
		frontdoor.WriteError(w, http.StatusBadRequest, "envelope ID %s does not match URL job %s", env.ID, id)
		return
	}
	if err := env.Validate(); err != nil {
		frontdoor.WriteError(w, http.StatusBadRequest, "invalid checkpoint: %v", err)
		return
	}
	info, accepted, err := s.jobs.Import(&env)
	switch {
	case errors.Is(err, jobs.ErrDraining):
		frontdoor.WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		frontdoor.WriteError(w, http.StatusInternalServerError, "importing checkpoint: %v", err)
		return
	}
	code := http.StatusOK
	if accepted {
		code = http.StatusCreated
	}
	frontdoor.WriteJSON(w, code, importReceipt{Info: info, Accepted: accepted, Cycle: env.Cycle, SnapCRC: env.SnapCRC})
}

// serveJobRelease finishes a job locally as migrated after its envelope has
// been verifiably imported elsewhere (DELETE /v1/jobs/{id}/checkpoint).
// Idempotent for already-migrated jobs; other terminal states are 409.
func (s *Server) serveJobRelease(w http.ResponseWriter, id string) {
	info, err := s.jobs.Release(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		frontdoor.WriteError(w, http.StatusNotFound, "no such job %q", id)
	case errors.Is(err, jobs.ErrTerminal):
		frontdoor.WriteError(w, http.StatusConflict, "job %s is already %s", id, info.State)
	case err != nil:
		frontdoor.WriteError(w, http.StatusInternalServerError, "releasing job: %v", err)
	default:
		frontdoor.WriteJSON(w, http.StatusOK, info)
	}
}

func (s *Server) serveJobInfo(w http.ResponseWriter, id string) {
	info, err := s.jobs.Get(id)
	if err != nil {
		frontdoor.WriteError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	frontdoor.WriteJSON(w, http.StatusOK, info)
}

func (s *Server) serveJobCancel(w http.ResponseWriter, id string) {
	info, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		frontdoor.WriteError(w, http.StatusNotFound, "no such job %q", id)
	case errors.Is(err, jobs.ErrTerminal):
		// Cancel raced completion: the job already reached a final state,
		// which the 409 body reports so the client can fetch the result.
		frontdoor.WriteError(w, http.StatusConflict, "job %s is already %s", id, info.State)
	case err != nil:
		frontdoor.WriteError(w, http.StatusInternalServerError, "cancelling job: %v", err)
	default:
		frontdoor.WriteJSON(w, http.StatusOK, info)
	}
}

// serveJobResult maps job states to result availability: done streams the
// body, failed is the job's error (502 to distinguish job failure from
// server failure), cancelled is gone, everything else is "not yet" (202
// with the current Info, plus a Retry-After hint).
func (s *Server) serveJobResult(w http.ResponseWriter, id string) {
	body, info, err := s.jobs.Result(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		frontdoor.WriteError(w, http.StatusNotFound, "no such job %q", id)
	case err == nil:
		frontdoor.WriteResult(w, id, "JOB", body)
	case info.State == jobs.StateFailed:
		frontdoor.WriteError(w, http.StatusBadGateway, "job failed: %s", info.Error)
	case info.State == jobs.StateCancelled:
		frontdoor.WriteError(w, http.StatusGone, "job %s was cancelled", id)
	case info.State == jobs.StateMigrated:
		// The fleet tier re-routes by content key; a direct client re-submits.
		frontdoor.WriteError(w, http.StatusGone, "job %s migrated to another backend", id)
	default:
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(s.opts.RetryAfter)))
		frontdoor.WriteJSON(w, http.StatusAccepted, info)
	}
}
