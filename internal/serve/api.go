package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	salam "gosalam"
	"gosalam/internal/campaign"
)

// routes builds the server's HTTP surface.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("POST /v1/searches", s.handleSearchSubmit)
	mux.HandleFunc("GET /v1/searches", s.handleSearchList)
	mux.HandleFunc("GET /v1/searches/{id}", s.handleSearchStatus)
	mux.HandleFunc("GET /v1/searches/{id}/frontier", s.handleSearchFrontier)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write is not actionable
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// submitResponse acknowledges an accepted campaign.
type submitResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Points  int    `json:"points"`
	Results string `json:"results"`
}

// decodeSpace reads and validates a submission's campaign.Space body: at
// most 1 MiB, unknown keys rejected. The error text is the 400's body.
// The server keeps encoding/json's decoder rather than the soccfg
// strict decoder salam-dse uses: that one's reflection walk costs several
// times the allocations per submission.
func decodeSpace(r *http.Request) (campaign.Space, error) {
	var space campaign.Space
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&space); err != nil {
		return space, fmt.Errorf("decoding space spec: %w", err)
	}
	return space, space.Validate()
}

// handleSubmit: POST /v1/campaigns with a campaign.Space JSON body.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.submitted.Add(1)
	// Validate before Size before Build: a malformed space is a clean 400
	// and an oversized one a 413 before anything enumerates the cross
	// product — a million-point typo never materializes a job slice.
	space, err := decodeSpace(r)
	if err != nil {
		s.stats.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n := space.Size(); n > s.cfg.maxPoints() {
		s.stats.rejectedInvalid.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("space enumerates %d points (limit %d); split the sweep, or submit it to /v1/searches", n, s.cfg.maxPoints()))
		return
	}
	_, jobs, err := space.Build()
	if err != nil {
		s.stats.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	c, aerr := s.admit(tenantOf(r), space, jobs, len(jobs), false)
	if aerr != nil {
		if aerr.retryAfter != "" {
			w.Header().Set("Retry-After", aerr.retryAfter)
		}
		writeError(w, aerr.status, aerr.msg)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:      c.ID,
		State:   stateQueued,
		Points:  len(jobs),
		Results: "/v1/campaigns/" + c.ID + "/results",
	})
}

// handleList: GET /v1/campaigns — snapshots in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.list(false)})
}

// list snapshots registered work of one kind in submission order.
func (s *Server) list(searches bool) []snapshot {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	cs := make([]*Campaign, 0, len(ids))
	for _, id := range ids {
		if c := s.campaigns[id]; c != nil && c.isSearch == searches {
			cs = append(cs, c)
		}
	}
	s.mu.Unlock()
	out := make([]snapshot, len(cs))
	for i, c := range cs {
		out[i] = c.snapshot()
	}
	return out
}

// lookup fetches a registered campaign or search by ID, filtered by kind
// so the two API families never cross-resolve each other's IDs.
func (s *Server) lookup(id string, search bool) *Campaign {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil || c.isSearch != search {
		return nil
	}
	return c
}

// handleStatus: GET /v1/campaigns/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r.PathValue("id"), false)
	if c == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, c.snapshot())
}

// handleResults: GET /v1/campaigns/{id}/results?from=idx — the NDJSON
// stream of campaign.Row records in submission order. Rows appear as their
// point (and every earlier point) completes; the stream ends when the
// campaign is terminal and fully replayed. ?from resumes mid-stream: a
// client that got n rows before a disconnect reconnects with from=n and
// the concatenation is byte-identical to one uninterrupted stream.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(r.PathValue("id"), false)
	if c == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "invalid from index")
			return
		}
		from = v
	}
	if from > len(c.jobs) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("from=%d beyond the campaign's %d points", from, len(c.jobs)))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	next := from
	for {
		c.mu.Lock()
		for next >= len(c.rows) && !c.terminal() {
			wake := c.wake
			c.mu.Unlock()
			select {
			case <-wake:
			case <-r.Context().Done():
				return // client gone; the campaign runs on
			}
			c.mu.Lock()
		}
		batch := c.rows[next:]
		next = len(c.rows)
		terminal := c.terminal()
		c.mu.Unlock()

		for _, row := range batch {
			if _, err := w.Write(row); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
	}
}

// handleHealthz: liveness plus drain visibility — a draining server
// reports 503 so load balancers stop routing to it while in-flight work
// finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statszResponse is the /statsz document.
type statszResponse struct {
	Shard struct {
		Index int `json:"index"`
		Count int `json:"count"`
	} `json:"shard"`
	Serve map[string]uint64 `json:"serve"`
	Elab  struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"elab_cache"`
	Sessions struct {
		Reused  uint64 `json:"reused"`
		Created uint64 `json:"created"`
	} `json:"sessions"`
	Store *struct {
		CorruptMisses uint64 `json:"corrupt_misses"`
	} `json:"store,omitempty"`
}

// handleStatsz: GET /statsz — the server's counters, the process-wide
// elaboration-cache hit rate, session-pool reuse, and store health as one
// JSON document.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var resp statszResponse
	resp.Shard.Index = s.cfg.Shard.Index
	resp.Shard.Count = s.cfg.Shard.Count
	if resp.Shard.Count == 0 {
		resp.Shard.Count = 1
	}
	resp.Serve = map[string]uint64{
		"submitted":           s.stats.submitted.Load(),
		"accepted":            s.stats.accepted.Load(),
		"rejected_invalid":    s.stats.rejectedInvalid.Load(),
		"rejected_queue_full": s.stats.rejectedQueueFull.Load(),
		"rejected_quota":      s.stats.rejectedQuota.Load(),
		"rejected_draining":   s.stats.rejectedDraining.Load(),
		"campaigns_done":      s.stats.campaignsDone.Load(),
		"campaigns_canceled":  s.stats.campaignsCanceled.Load(),
		"points_accepted":     s.stats.pointsAccepted.Load(),
		"points_simulated":    s.stats.pointsSimulated.Load(),
		"points_cached":       s.stats.pointsCached.Load(),
		"points_failed":       s.stats.pointsFailed.Load(),
		"points_pruned":       s.stats.pointsPruned.Load(),
		"points_skipped":      s.stats.pointsSkipped.Load(),
	}
	hits, misses := salam.ElabCacheStats()
	resp.Elab.Hits, resp.Elab.Misses = hits, misses
	if total := hits + misses; total > 0 {
		resp.Elab.HitRate = float64(hits) / float64(total)
	}
	resp.Sessions.Reused, resp.Sessions.Created = s.sessions.Stats()
	if fs, ok := s.cfg.Store.(*campaign.Cache); ok {
		resp.Store = &struct {
			CorruptMisses uint64 `json:"corrupt_misses"`
		}{CorruptMisses: fs.CorruptMisses()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// Merge reassembles a full sweep from a shared store as the canonical
// NDJSON row stream — the merge half of shard-by-cache-key scheduling
// (salam-serve -merge). It returns the number of points still missing from
// the store (shards not yet finished, or points that errored and never
// persisted).
func Merge(space campaign.Space, store campaign.Store, w io.Writer) (missing int, err error) {
	_, jobs, err := space.Build()
	if err != nil {
		return 0, err
	}
	rows, err := campaign.MergeRows(jobs, store)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r.Status == campaign.StatusMissing {
			missing++
		}
	}
	return missing, campaign.WriteRows(w, rows)
}
