package serve

import (
	"context"
	"encoding/json"
	"sync"

	"gosalam/internal/campaign"
	"gosalam/internal/search"
)

// Campaign states.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateCanceled = "canceled"
)

// Campaign is one submitted sweep's server-side state: the validated job
// list, the growing row log the results stream replays, and completion
// counters. Rows land in submission order (campaign.OrderedStream), so a
// stream resumed at ?from=i is always byte-identical to the suffix of a
// stream read from the start — the server-side face of the engine's
// worker-count-invariant output guarantee.
type Campaign struct {
	ID     string
	Tenant string
	Space  campaign.Space

	jobs []campaign.Job

	// isSearch marks a branch-and-bound search submission (POST
	// /v1/searches): no job list, no row stream — the runner executes
	// search.Run and parks the certified result in searchRes. points is
	// the admission debt either way (enumerated points for a sweep,
	// collapsed leaves for a search).
	isSearch bool
	points   int

	mu        sync.Mutex
	wake      chan struct{} // closed+replaced on every append/state change
	state     string
	rows      [][]byte // marshaled NDJSON lines, submission order
	done      int      // outcomes delivered (completion order, for progress)
	fail      string   // terminal failure reason (stateCanceled)
	searchRes *search.Result

	simulated, cached, failed, skipped int
}

func newCampaign(id, tenant string, space campaign.Space, jobs []campaign.Job) *Campaign {
	return &Campaign{
		ID:     id,
		Tenant: tenant,
		Space:  space,
		jobs:   jobs,
		points: len(jobs),
		wake:   make(chan struct{}),
		state:  stateQueued,
	}
}

// terminal reports whether the campaign will never append another row.
func (c *Campaign) terminal() bool {
	return c.state == stateDone || c.state == stateCanceled
}

// broadcast wakes every waiting stream. Callers hold c.mu.
func (c *Campaign) broadcast() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// appendRow marshals one submission-ordered outcome onto the row log.
func (c *Campaign) appendRow(o campaign.Outcome) {
	row := campaign.RowOf(o)
	data, err := json.Marshal(row)
	if err != nil {
		// A row that cannot marshal (out-of-range float in a probe) must
		// not stall the stream: degrade to an error row for the point.
		data, _ = json.Marshal(campaign.Row{
			Index: o.Index, ID: o.Job.ID, Status: campaign.StatusError,
			Error: "row marshal: " + err.Error(),
		})
	}
	c.mu.Lock()
	c.rows = append(c.rows, append(data, '\n'))
	c.broadcast()
	c.mu.Unlock()
}

// observe tracks completion-order progress. Runs on the campaign's
// collector goroutine.
func (c *Campaign) observe(o campaign.Outcome) {
	c.mu.Lock()
	c.done++
	switch {
	case o.Skipped:
		c.skipped++
	case o.Err != nil:
		c.failed++
	case o.Cached:
		c.cached++
	default:
		c.simulated++
	}
	c.mu.Unlock()
}

// progressReporter adapts observe onto the campaign Reporter interface as
// the inner reporter behind the ordered stream.
type progressReporter struct{ c *Campaign }

func (p progressReporter) Start(int)                            {}
func (p progressReporter) JobDone(o campaign.Outcome, _, _ int) { p.c.observe(o) }
func (p progressReporter) Warn(string)                          {}
func (p progressReporter) Finish()                              {}

// campaignContext builds one run's context: the configured wall-clock
// deadline, or background when none is set.
func (s *Server) campaignContext() (context.Context, context.CancelFunc) {
	if s.cfg.Deadline > 0 {
		return context.WithTimeout(context.Background(), s.cfg.Deadline)
	}
	return context.Background(), func() {}
}

// runCampaign executes one campaign on this runner goroutine: the queued →
// running → done lifecycle around one campaign.Run call wired into the
// shared store, session pool, shard filter, and drain channel.
func (s *Server) runCampaign(c *Campaign) {
	c.mu.Lock()
	c.state = stateRunning
	c.broadcast()
	c.mu.Unlock()

	ctx, cancel := s.campaignContext()
	defer cancel()
	stats := statGroup(c.ID)
	cfg := campaign.Config{
		Workers:  s.cfg.Workers,
		Cache:    s.cfg.Store,
		Sessions: s.sessions,
		Stats:    stats,
		Progress: campaign.NewOrderedStream(c.appendRow, progressReporter{c}),
		Drain:    s.drain,
	}
	if s.cfg.Shard.Count > 1 {
		shard := s.cfg.Shard
		cfg.Shard = &shard
	}
	if s.cfg.testHook != nil {
		s.cfg.testHook(&cfg)
	}
	campaign.Run(ctx, cfg, c.jobs)

	// Fold the campaign's sim-stats counters into the server totals; the
	// per-campaign group dies with the campaign, the totals feed /statsz.
	if v, ok := stats.Lookup(c.ID + ".campaign.jobs_simulated"); ok {
		s.stats.pointsSimulated.Add(uint64(v))
	}
	if v, ok := stats.Lookup(c.ID + ".campaign.jobs_cached"); ok {
		s.stats.pointsCached.Add(uint64(v))
	}
	if v, ok := stats.Lookup(c.ID + ".campaign.jobs_failed"); ok {
		s.stats.pointsFailed.Add(uint64(v))
	}
	if v, ok := stats.Lookup(c.ID + ".campaign.points_skipped"); ok {
		s.stats.pointsSkipped.Add(uint64(v))
	}
	s.finishCampaign(c, stateDone, "")
}

// finishCampaign moves a campaign to a terminal state and returns its
// admission debt to the tenant.
func (s *Server) finishCampaign(c *Campaign, state, reason string) {
	c.mu.Lock()
	if c.terminal() {
		c.mu.Unlock()
		return
	}
	c.state = state
	c.fail = reason
	c.broadcast()
	c.mu.Unlock()
	switch state {
	case stateDone:
		s.stats.campaignsDone.Add(1)
	case stateCanceled:
		s.stats.campaignsCanceled.Add(1)
	}
	s.releaseTenant(c.Tenant, c.points)
}

// snapshot is the status view of a campaign or search. Search snapshots
// carry the certified result's accounting once terminal.
type snapshot struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	State     string `json:"state"`
	Points    int    `json:"points"`
	Emitted   int    `json:"emitted,omitempty"`
	Done      int    `json:"done,omitempty"`
	Simulated int    `json:"simulated"`
	Cached    int    `json:"cached"`
	Failed    int    `json:"failed,omitempty"`
	Skipped   int    `json:"skipped,omitempty"`
	Reason    string `json:"reason,omitempty"`

	// Search-only accounting (see search.Result).
	Classes         int  `json:"classes,omitempty"`
	Evaluated       int  `json:"evaluated,omitempty"`
	ProxyRuns       int  `json:"proxy_runs,omitempty"`
	PrunedPoints    int  `json:"pruned_points,omitempty"`
	CollapsedPoints int  `json:"collapsed_points,omitempty"`
	Waves           int  `json:"waves,omitempty"`
	FrontierSize    int  `json:"frontier_size,omitempty"`
	Drained         bool `json:"drained,omitempty"`
}

func (c *Campaign) snapshot() snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	kind := "campaign"
	if c.isSearch {
		kind = "search"
	}
	sn := snapshot{
		ID:        c.ID,
		Kind:      kind,
		State:     c.state,
		Points:    c.points,
		Emitted:   len(c.rows),
		Done:      c.done,
		Simulated: c.simulated,
		Cached:    c.cached,
		Failed:    c.failed,
		Skipped:   c.skipped,
		Reason:    c.fail,
	}
	if res := c.searchRes; res != nil {
		sn.Points = res.Points
		sn.Classes = res.Classes
		sn.Simulated = res.Simulated
		sn.Cached = res.CacheHits
		sn.Evaluated = res.Evaluated
		sn.ProxyRuns = res.ProxyRuns
		sn.PrunedPoints = res.PrunedPoints
		sn.CollapsedPoints = res.CollapsedPoints
		sn.Waves = res.Waves
		sn.FrontierSize = len(res.Frontier)
		sn.Drained = res.Drained
	}
	return sn
}
