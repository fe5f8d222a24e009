package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"hwgc"
	"hwgc/internal/events"
	"hwgc/internal/jobs"
	"hwgc/internal/sweep"
)

// sweepSubmitBody is the POST /v1/sweeps request: the space to explore plus
// an optional job priority class for its points.
type sweepSubmitBody struct {
	Space *hwgc.SweepSpace
	Class string `json:",omitempty"`
}

// writeSweepInfo serves a sweep Info snapshot as indented JSON.
func writeSweepInfo(w http.ResponseWriter, code int, info sweep.Info) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(info)
}

// handleSweeps serves POST /v1/sweeps. Submissions are idempotent: the
// sweep ID is the content address of the canonical space, so resubmitting
// an identical space returns the existing sweep (200) with zero new jobs
// instead of planning a new one (202).
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/sweeps", false, func(w http.ResponseWriter, r *http.Request) {
		if !requirePost(w, r) {
			return
		}
		var body sweepSubmitBody
		if !decodeJSON(w, r, &body) {
			return
		}
		if body.Space == nil {
			writeError(w, http.StatusBadRequest, "Space must be set")
			return
		}
		if body.Class != "" && !s.jobs.HasClass(body.Class) {
			writeError(w, http.StatusBadRequest, "unknown job class %q", body.Class)
			return
		}
		if err := body.Space.Canonicalize(); err != nil {
			writeError(w, http.StatusBadRequest, "invalid sweep space: %v", err)
			return
		}
		if s.opts.MaxScale > 0 {
			for _, sc := range body.Space.Scales {
				if sc > s.opts.MaxScale {
					writeError(w, http.StatusBadRequest, "scale %d exceeds server limit %d", sc, s.opts.MaxScale)
					return
				}
			}
		}
		info, accepted, err := s.sweeps.Submit(body.Space, body.Class)
		switch {
		case errors.Is(err, jobs.ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, "submitting sweep: %v", err)
			return
		}
		code := http.StatusOK // deduped onto an existing sweep
		if accepted {
			code = http.StatusAccepted
		}
		w.Header().Set("Location", "/v1/sweeps/"+info.ID)
		writeSweepInfo(w, code, info)
	})(w, r)
}

// handleSweepByID routes /v1/sweeps/{id} and /v1/sweeps/{id}/events.
func (s *Server) handleSweepByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sweeps/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || strings.Contains(sub, "/") {
		writeError(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
		return
	}
	switch sub {
	case "":
		s.instrument("/v1/sweeps/{id}", false, func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				s.serveSweepInfo(w, id)
			case http.MethodDelete:
				s.serveSweepCancel(w, id)
			default:
				w.Header().Set("Allow", "GET, DELETE")
				writeError(w, http.StatusMethodNotAllowed, "%s requires GET or DELETE", r.URL.Path)
			}
		})(w, r)
	case "events":
		s.instrument("/v1/sweeps/{id}/events", false, func(w http.ResponseWriter, r *http.Request) {
			if !requireGet(w, r) {
				return
			}
			history, live, stop, err := s.sweeps.Subscribe(id)
			if err != nil {
				writeError(w, http.StatusNotFound, "no such sweep %q", id)
				return
			}
			defer stop()
			if err := events.Serve(w, r, history, live, s.draining); err != nil {
				writeError(w, http.StatusInternalServerError, "%v", err)
			}
		})(w, r)
	default:
		writeError(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
	}
}

func (s *Server) serveSweepInfo(w http.ResponseWriter, id string) {
	info, err := s.sweeps.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no such sweep %q", id)
		return
	}
	writeSweepInfo(w, http.StatusOK, info)
}

func (s *Server) serveSweepCancel(w http.ResponseWriter, id string) {
	info, err := s.sweeps.Cancel(id)
	switch {
	case errors.Is(err, sweep.ErrNotFound):
		writeError(w, http.StatusNotFound, "no such sweep %q", id)
	case errors.Is(err, sweep.ErrTerminal):
		writeError(w, http.StatusConflict, "sweep %s is already %s", id, info.State)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "cancelling sweep: %v", err)
	default:
		writeSweepInfo(w, http.StatusOK, info)
	}
}
