package frontdoor

import (
	"errors"
	"net/http"
	"strings"

	"hwgc"
	"hwgc/internal/events"
	"hwgc/internal/jobs"
	"hwgc/internal/sweep"
)

// Sweeps serves the async parameter-space endpoints over one tier's
// coordinator:
//
//	POST   /v1/sweeps               submit a SweepSpace (202 + sweep info)
//	GET    /v1/sweeps/{id}          progress + current ranked frontier
//	GET    /v1/sweeps/{id}/events   per-point completions and frontier updates (SSE)
//	DELETE /v1/sweeps/{id}          cancel outstanding points
type Sweeps struct {
	Coord *sweep.Coordinator
	// Admit, when set, vets a canonical space and its class before the
	// submission; its error is a 400 with the error's text.
	Admit func(space *hwgc.SweepSpace, class string) error
	// Stop ends the open event streams when it closes (a draining tier):
	// the clients reconnect and resume.
	Stop <-chan struct{}
	// Route, when set, wraps the handler of each by-ID route ("/v1/sweeps/{id}"
	// and "/v1/sweeps/{id}/events"), for per-route instrumentation.
	Route func(route string, h http.HandlerFunc) http.HandlerFunc
}

// sweepSubmitBody is the POST /v1/sweeps request: the space to explore plus
// an optional job priority class for its points.
type sweepSubmitBody struct {
	Space *hwgc.SweepSpace
	Class string `json:",omitempty"`
}

// Submit serves POST /v1/sweeps. Submissions are idempotent: the sweep ID
// is the content address of the canonical space, so resubmitting an
// identical space returns the existing sweep (200) with zero new jobs
// instead of planning a new one (202).
func (s *Sweeps) Submit(w http.ResponseWriter, r *http.Request) {
	if !RequirePost(w, r) {
		return
	}
	var body sweepSubmitBody
	if !DecodeJSON(w, r, &body) {
		return
	}
	if body.Space == nil {
		WriteError(w, http.StatusBadRequest, "Space must be set")
		return
	}
	if err := body.Space.Canonicalize(); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid sweep space: %v", err)
		return
	}
	if s.Admit != nil {
		if err := s.Admit(body.Space, body.Class); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	info, accepted, err := s.Coord.Submit(body.Space, body.Class)
	switch {
	case errors.Is(err, jobs.ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "submitting sweep: %v", err)
		return
	}
	code := http.StatusOK // deduped onto an existing sweep
	if accepted {
		code = http.StatusAccepted
	}
	w.Header().Set("Location", "/v1/sweeps/"+info.ID)
	WriteJSON(w, code, info)
}

// ByID routes /v1/sweeps/{id} and /v1/sweeps/{id}/events. Sweeps live in
// the coordinator, so these serve its state with no further hop.
func (s *Sweeps) ByID(w http.ResponseWriter, r *http.Request) {
	id, sub, ok := SplitID(w, r, "/v1/sweeps/")
	if !ok {
		return
	}
	switch sub {
	case "":
		s.route("/v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				s.info(w, id)
			case http.MethodDelete:
				s.cancel(w, id)
			default:
				w.Header().Set("Allow", "GET, DELETE")
				WriteError(w, http.StatusMethodNotAllowed, "%s requires GET or DELETE", r.URL.Path)
			}
		})(w, r)
	case "events":
		s.route("/v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
			if !RequireGet(w, r) {
				return
			}
			history, live, stop, err := s.Coord.Subscribe(id)
			if err != nil {
				WriteError(w, http.StatusNotFound, "no such sweep %q", id)
				return
			}
			defer stop()
			if err := events.Serve(w, r, history, live, s.Stop); err != nil {
				WriteError(w, http.StatusInternalServerError, "%v", err)
			}
		})(w, r)
	default:
		WriteError(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
	}
}

func (s *Sweeps) route(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.Route == nil {
		return h
	}
	return s.Route(route, h)
}

func (s *Sweeps) info(w http.ResponseWriter, id string) {
	info, err := s.Coord.Get(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, "no such sweep %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Sweeps) cancel(w http.ResponseWriter, id string) {
	info, err := s.Coord.Cancel(id)
	switch {
	case errors.Is(err, sweep.ErrNotFound):
		WriteError(w, http.StatusNotFound, "no such sweep %q", id)
	case errors.Is(err, sweep.ErrTerminal):
		WriteError(w, http.StatusConflict, "sweep %s is already %s", id, info.State)
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "cancelling sweep: %v", err)
	default:
		WriteJSON(w, http.StatusOK, info)
	}
}

// SplitID splits a by-ID path under prefix into the ID and the optional
// subresource after it. It answers 404 and returns false for an empty ID
// or a nested subresource.
func SplitID(w http.ResponseWriter, r *http.Request, prefix string) (id, sub string, ok bool) {
	id, sub, _ = strings.Cut(strings.TrimPrefix(r.URL.Path, prefix), "/")
	if id == "" || strings.Contains(sub, "/") {
		WriteError(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
		return "", "", false
	}
	return id, sub, true
}
