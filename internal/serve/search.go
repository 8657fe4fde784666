package serve

// The /v1/searches family: branch-and-bound Pareto search as a service.
// A search submission carries the same campaign.Space JSON a sweep does,
// but the admission math is different on purpose — the gate and the quota
// debt are the space's COLLAPSED leaf count (search.CollapsedSize), the
// most the engine could ever simulate, so a million-point ranged space
// with a thousand distinct hardware configurations is admissible work,
// not a 413. Searches share the sweep path's submission queue, runner
// pool, tenant quotas, session pool, result store, and drain behaviour;
// a drained search reports Drained and a resubmission against the same
// store resumes from cache hits.

import (
	"fmt"
	"io"
	"net/http"

	"gosalam/internal/search"
)

// searchSubmitResponse acknowledges an accepted search.
type searchSubmitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Points   int    `json:"points"`
	Classes  int    `json:"classes"`
	Frontier string `json:"frontier"`
}

// handleSearchSubmit: POST /v1/searches with a campaign.Space JSON body.
func (s *Server) handleSearchSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.submitted.Add(1)
	space, err := decodeSpace(r)
	if err != nil {
		s.stats.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.cfg.Shard.Count > 1 {
		// A search's wave schedule is a global decision; shard-by-cache-key
		// splitting only partitions fixed job lists.
		s.stats.rejectedInvalid.Add(1)
		writeError(w, http.StatusNotImplemented, "sharded servers run sweeps, not searches; submit to an unsharded server")
		return
	}
	leaves, err := search.CollapsedSize(space)
	if err != nil {
		s.stats.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if leaves > s.cfg.maxPoints() {
		s.stats.rejectedInvalid.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("space has %d distinct configurations after collapse (limit %d); narrow the knobs", leaves, s.cfg.maxPoints()))
		return
	}
	c, aerr := s.admit(tenantOf(r), space, nil, leaves, true)
	if aerr != nil {
		if aerr.retryAfter != "" {
			w.Header().Set("Retry-After", aerr.retryAfter)
		}
		writeError(w, aerr.status, aerr.msg)
		return
	}
	writeJSON(w, http.StatusAccepted, searchSubmitResponse{
		ID:       c.ID,
		State:    stateQueued,
		Points:   space.Size(),
		Classes:  leaves,
		Frontier: "/v1/searches/" + c.ID + "/frontier",
	})
}

// handleSearchList: GET /v1/searches.
func (s *Server) handleSearchList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"searches": s.list(true)})
}

// handleSearchStatus: GET /v1/searches/{id}.
func (s *Server) handleSearchStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r.PathValue("id"), true)
	if c == nil {
		writeError(w, http.StatusNotFound, "no such search")
		return
	}
	writeJSON(w, http.StatusOK, c.snapshot())
}

// handleSearchFrontier: GET /v1/searches/{id}/frontier — the certified
// frontier CSV once the search is done (409 while it is still queued or
// running, 410 if it was canceled). The bytes are identical to what
// salam-dse -search prints for the same space, store or no store.
func (s *Server) handleSearchFrontier(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r.PathValue("id"), true)
	if c == nil {
		writeError(w, http.StatusNotFound, "no such search")
		return
	}
	c.mu.Lock()
	state, reason, res := c.state, c.fail, c.searchRes
	c.mu.Unlock()
	switch {
	case res != nil:
		w.Header().Set("Content-Type", "text/csv")
		io.WriteString(w, search.FrontierCSV(c.Space.Kernel, res.Frontier)) //nolint:errcheck // client gone mid-write is not actionable
	case state == stateCanceled:
		writeError(w, http.StatusGone, "search canceled: "+reason)
	default:
		writeError(w, http.StatusConflict, "search is "+state+"; retry when done")
	}
}

// runSearch executes one search on this runner goroutine: the queued →
// running → done lifecycle around one search.Run call wired into the
// shared store, session pool, and drain channel.
func (s *Server) runSearch(c *Campaign) {
	c.mu.Lock()
	c.state = stateRunning
	c.broadcast()
	c.mu.Unlock()

	ctx, cancel := s.campaignContext()
	defer cancel()
	cfg := search.Config{
		Space:    c.Space,
		Workers:  s.cfg.Workers,
		Cache:    s.cfg.Store,
		Sessions: s.sessions,
		Drain:    s.drain,
	}
	if s.cfg.searchHook != nil {
		s.cfg.searchHook(&cfg)
	}
	res, err := search.Run(ctx, cfg)
	if err != nil {
		s.finishCampaign(c, stateCanceled, err.Error())
		return
	}
	c.mu.Lock()
	c.searchRes = res
	c.mu.Unlock()
	s.stats.pointsSimulated.Add(uint64(res.Simulated))
	s.stats.pointsCached.Add(uint64(res.CacheHits))
	s.stats.pointsPruned.Add(uint64(res.PrunedPoints))
	s.finishCampaign(c, stateDone, "")
}
