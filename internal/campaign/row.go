package campaign

import (
	"encoding/json"
	"fmt"
	"io"
)

// Row is the canonical wire form of one outcome: the NDJSON record
// salam-serve streams, salam-dse -json prints, and salam-serve -merge
// reassembles from a shared store. A Row deliberately excludes everything
// volatile — wall-clock time, cache-hit flags, worker identity — so the
// same design point renders byte-identical whether it was simulated fresh,
// served from the store, or merged from another shard's work. Field order
// is fixed by the struct; map-valued fields (Metrics.Extra) marshal with
// sorted keys under encoding/json, so marshaling is deterministic.
type Row struct {
	// Index is the job's position in the submitted space.
	Index int `json:"index"`
	// ID is the job's human-readable label.
	ID string `json:"id,omitempty"`
	// Kernel is the job's kernel identity (Job.KernelKey).
	Kernel string `json:"kernel,omitempty"`
	// Key is the job's content-addressed store key (JobKey).
	Key string `json:"key,omitempty"`
	// Status is one of ok, error, pruned, skipped, missing.
	Status string `json:"status"`
	// StaticLB is the provable cycle lower bound, when the producer
	// computed one (salam-dse's pruned sweeps do; RowOf never does).
	StaticLB uint64 `json:"static_lb,omitempty"`
	// StaticEnergyPJ is the provable dynamic-energy lower bound in
	// picojoules (0 when no bound exists). Derived from the job spec, not
	// the run, so it renders identically for fresh, cached, merged, and
	// pruned rows.
	StaticEnergyPJ float64 `json:"static_energy,omitempty"`
	// Error carries the failure for status "error".
	Error string `json:"error,omitempty"`
	// Metrics is present for status "ok".
	Metrics *Metrics `json:"metrics,omitempty"`
}

// Row statuses.
const (
	// StatusOK: the point has metrics (simulated fresh or read back).
	StatusOK = "ok"
	// StatusError: the point failed (simulation error, panic, timeout, or
	// drain).
	StatusError = "error"
	// StatusPruned: salam-dse's static lower-bound pruning proved the point
	// worse than a measured sibling; it was never simulated.
	StatusPruned = "pruned"
	// StatusSkipped: another shard owns the point.
	StatusSkipped = "skipped"
	// StatusMissing: a merge found no store entry for the point.
	StatusMissing = "missing"
)

// RowOf projects an outcome onto its canonical row.
func RowOf(o Outcome) Row {
	r := Row{
		Index:  o.Index,
		ID:     o.Job.ID,
		Kernel: o.Job.KernelKey,
	}
	if r.Kernel == "" && o.Job.Kernel != nil {
		r.Kernel = o.Job.Kernel.Name
	}
	if key, err := JobKey(o.Job); err == nil {
		r.Key = key
	}
	if e, ok := StaticEnergy(o.Job); ok {
		r.StaticEnergyPJ = e
	}
	switch {
	case o.Skipped:
		r.Status = StatusSkipped
	case o.Err != nil:
		r.Status = StatusError
		r.Error = o.Err.Error()
	default:
		r.Status = StatusOK
		r.Metrics = o.Metrics
	}
	return r
}

// Rows projects a whole campaign's outcomes.
func Rows(outcomes []Outcome) []Row {
	rows := make([]Row, len(outcomes))
	for i, o := range outcomes {
		rows[i] = RowOf(o)
	}
	return rows
}

// WriteRow writes one row as an NDJSON line.
func WriteRow(w io.Writer, r Row) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteRows writes rows as NDJSON, one line per row.
func WriteRows(w io.Writer, rows []Row) error {
	for _, r := range rows {
		if err := WriteRow(w, r); err != nil {
			return err
		}
	}
	return nil
}

// MergeRows reassembles a full sweep's rows from a shared store: for every
// job, the stored metrics become an ok row, and absent entries render as
// status "missing" (a shard that has not finished yet, or a point that
// errored and so never persisted). When every shard of a space has
// completed against the store, the merged rows are byte-identical to a
// single-process run of the same space, because metrics are deterministic
// and the store round-trips them exactly.
func MergeRows(jobs []Job, store Store) ([]Row, error) {
	rows := make([]Row, len(jobs))
	for i, job := range jobs {
		key, err := JobKey(job)
		if err != nil {
			return nil, fmt.Errorf("campaign: keying job %d (%s): %w", i, job.ID, err)
		}
		r := Row{Index: i, ID: job.ID, Kernel: job.KernelKey, Key: key}
		if r.Kernel == "" && job.Kernel != nil {
			r.Kernel = job.Kernel.Name
		}
		if e, ok := StaticEnergy(job); ok {
			r.StaticEnergyPJ = e
		}
		if m, ok := store.Get(key); ok {
			r.Status = StatusOK
			r.Metrics = m
		} else {
			r.Status = StatusMissing
		}
		rows[i] = r
	}
	return rows, nil
}
