package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strings"

	"hwgc/internal/frontdoor"
)

// The admin API is the fleet's elastic-membership control plane:
//
//	POST   /v1/admin/backends      {"URL": "http://host:port"}  join a backend
//	DELETE /v1/admin/backends/{id}                              remove a backend
//	GET    /v1/admin/topology                                   current ring view
//	POST   /v1/admin/rebalance                                  synchronous rebalance pass
//
// Joins are health-gated (the candidate must answer a probe before taking
// traffic); joins and removals both kick an asynchronous rebalance pass
// that resubmits displaced jobs to their new owners.

// topologyBackend is one row of the admin topology report.
type topologyBackend struct {
	ID      string
	URL     string
	Breaker string
	Up      bool
	Removed bool    `json:",omitempty"` // rebalance source awaiting drain
	Share   float64 // fraction of the key space owned (0 once removed)
}

// topologyBody is the GET /v1/admin/topology response.
type topologyBody struct {
	Backends     []topologyBackend
	Replicas     int
	Vnodes       int
	KeysRemapped float64 // sampled remap fraction of the last membership change
	RegistryJobs int     // submissions remembered for dead-owner rescue
}

func (f *Fleet) topology() topologyBody {
	f.mu.RLock()
	shares := f.ring.Shares()
	body := topologyBody{
		Replicas:     f.opts.Replicas,
		Vnodes:       DefaultVnodes,
		KeysRemapped: f.emetrics.keysRemapped.Load(),
	}
	for _, id := range f.ring.Members() {
		b := f.backends[id]
		body.Backends = append(body.Backends, topologyBackend{
			ID:      b.id,
			URL:     b.baseURL,
			Breaker: b.breaker.State().String(),
			Up:      b.healthy.Load(),
			Share:   shares[id],
		})
	}
	removedIDs := make([]string, 0, len(f.removed))
	for id := range f.removed {
		removedIDs = append(removedIDs, id)
	}
	sort.Strings(removedIDs)
	for _, id := range removedIDs {
		b := f.removed[id]
		body.Backends = append(body.Backends, topologyBackend{
			ID:      b.id,
			URL:     b.baseURL,
			Breaker: b.breaker.State().String(),
			Up:      b.healthy.Load(),
			Removed: true,
		})
	}
	f.mu.RUnlock()
	body.RegistryJobs = f.registry.Len()
	return body
}

func (f *Fleet) writeTopology(w http.ResponseWriter, code int) {
	frontdoor.WriteJSON(w, code, f.topology())
}

// handleAdminTopology serves GET /v1/admin/topology.
func (f *Fleet) handleAdminTopology(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.RequireGet(w, r) {
		return
	}
	f.writeTopology(w, http.StatusOK)
}

// addBackendBody is the POST /v1/admin/backends request.
type addBackendBody struct {
	URL string
}

// handleAdminBackends serves POST /v1/admin/backends: health-gated join.
func (f *Fleet) handleAdminBackends(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.RequirePost(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, frontdoor.MaxBodyBytes)
	var body addBackendBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		frontdoor.WriteError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if body.URL == "" {
		frontdoor.WriteError(w, http.StatusBadRequest, "URL must be set")
		return
	}
	_, _, err := f.AddBackend(body.URL)
	switch {
	case err == nil:
		f.goRebalance()
		f.writeTopology(w, http.StatusCreated)
	case errors.Is(err, ErrDuplicate):
		frontdoor.WriteError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrAdmission):
		frontdoor.WriteError(w, http.StatusBadGateway, "%v", err)
	default:
		frontdoor.WriteError(w, http.StatusBadRequest, "%v", err)
	}
}

// handleAdminBackendByID serves DELETE /v1/admin/backends/{id}.
func (f *Fleet) handleAdminBackendByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/admin/backends/")
	if id == "" || strings.Contains(id, "/") {
		frontdoor.WriteError(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
		return
	}
	if r.Method != http.MethodDelete {
		w.Header().Set("Allow", http.MethodDelete)
		frontdoor.WriteError(w, http.StatusMethodNotAllowed, "%s requires DELETE", r.URL.Path)
		return
	}
	_, err := f.RemoveBackend(id)
	switch {
	case err == nil:
		f.goRebalance()
		f.writeTopology(w, http.StatusOK)
	case errors.Is(err, ErrUnknownBackend):
		frontdoor.WriteError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrLastBackend):
		frontdoor.WriteError(w, http.StatusConflict, "%v", err)
	default:
		frontdoor.WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleAdminRebalance serves POST /v1/admin/rebalance: a synchronous
// rebalance pass whose report is the response body. The async passes that
// topology changes kick make this mostly an operator/testing convenience —
// a deterministic "rebalance now and tell me what moved".
func (f *Fleet) handleAdminRebalance(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.RequirePost(w, r) {
		return
	}
	frontdoor.WriteJSON(w, http.StatusOK, f.Rebalance(r.Context()))
}
