package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/serve"
)

const (
	// campaignWorkers is fixed: the reference box has two cores, and load
	// must not follow GOMAXPROCS.
	campaignWorkers = 2
	// replaySubmissions is how many times one dse_replay op submits the
	// space.
	replaySubmissions = 8
)

// outDir is where the benchmark writes: store directories while it runs,
// the trace file at exit. bench/run.sh builds into the same directory.
var outDir = ".bench_build"

// dseSpace generates the 48-point space: GEMM at the default preset over
// ports x FU limits x SPM banks x memory kind. The seed orders the axes'
// values (and with them the submission order of the points); the set of
// points, and so the work, is the same under every seed.
func dseSpace(seed int64) campaign.Space {
	r := rand.New(rand.NewSource(seed))
	sp := campaign.Space{
		Kernel: "gemm", Preset: "default",
		Ports: []int{2, 4, 8}, FU: []int{0, 2, 4, 8}, Banks: []int{2, 4},
		Mem: []string{"spm", "cache"},
	}
	for _, axis := range [][]int{sp.Ports, sp.FU, sp.Banks} {
		r.Shuffle(len(axis), func(i, j int) { axis[i], axis[j] = axis[j], axis[i] })
	}
	r.Shuffle(len(sp.Mem), func(i, j int) { sp.Mem[i], sp.Mem[j] = sp.Mem[j], sp.Mem[i] })
	return sp
}

// dseInst is the serving stack of both dse workloads: one loopback
// listener and one client connection for the whole run, a session pool
// shared by every server, and the reference rows a local campaign.Run of
// the same jobs rendered.
type dseInst struct {
	replay      bool
	submissions int    // per op: 1, or replaySubmissions
	body        []byte // the space document
	pool        *salam.SessionPool
	ln          net.Listener
	hs          *http.Server
	served      chan struct{} // closed when hs.Serve has returned
	client      *http.Client
	base        string
	cur         atomic.Pointer[serve.Server]
	dir         string // store directory of the current server

	refRows   []byte // NDJSON rows of one submission
	refCycles uint64 // sum of the rows' cycle counts

	lastRows []byte
	before   statsz
	after    statsz
	points   int
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Serve    map[string]uint64 `json:"serve"`
	Sessions struct {
		Reused  uint64 `json:"reused"`
		Created uint64 `json:"created"`
	} `json:"sessions"`
}

func setupDSE(replay bool) func(int64) (instance, error) {
	return func(seed int64) (inst instance, err error) {
		d := &dseInst{replay: replay, submissions: 1, pool: salam.NewSessionPool(), served: make(chan struct{})}
		if replay {
			d.submissions = replaySubmissions
		}
		defer func() {
			if err != nil {
				d.close()
			}
		}()
		space := dseSpace(seed)
		if d.body, err = json.Marshal(space); err != nil {
			return nil, err
		}
		_, jobs, err := space.Build()
		if err != nil {
			return nil, err
		}
		d.points = len(jobs)

		if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		d.base = "http://" + d.ln.Addr().String()
		d.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d.cur.Load().ServeHTTP(w, r)
		})}
		go func() {
			defer close(d.served)
			d.hs.Serve(d.ln) //nolint:errcheck // returns ErrServerClosed at close
		}()
		d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}

		// The reference: the same jobs through campaign.Run with no HTTP in
		// front, against an empty store — which this also fills, for
		// dse_replay's server to read.
		var store *campaign.Cache
		if d.dir, store, err = newStore(); err != nil {
			return nil, err
		}
		local := campaign.Config{Workers: campaignWorkers, Cache: store, Sessions: d.pool}
		if d.refRows, err = runLocal(local, jobs); err != nil {
			return nil, err
		}
		if d.refCycles, err = sumCycles(d.refRows); err != nil {
			return nil, err
		}
		if replay {
			return d, d.swapServer(store)
		}
		return d, nil
	}
}

// runLocal runs jobs through the campaign engine directly and renders
// their rows.
func runLocal(cfg campaign.Config, jobs []campaign.Job) ([]byte, error) {
	out := campaign.Run(context.Background(), cfg, jobs)
	if err := campaign.FirstError(out); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := campaign.WriteRows(&buf, campaign.Rows(out)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// probeDSE is the dse workloads' part of the traced pass that no op makes:
// what one op's jobs cost with no HTTP in front (campaign.run_local_ms: one
// run against an empty store for dse_serve, replaySubmissions runs against
// a filled one for dse_replay), and for dse_serve the engine's exact counts
// for the space, read from a cold-start run of the same jobs — the only
// mode that keeps live Results.
func probeDSE(replay bool) func(int64, *tracer) (map[string]float64, error) {
	return func(seed int64, tr *tracer) (map[string]float64, error) {
		_, jobs, err := dseSpace(seed).Build()
		if err != nil {
			return nil, err
		}
		dir, store, err := newStore()
		if err != nil {
			return nil, err
		}
		defer func() { os.RemoveAll(dir) }()
		local := campaign.Config{Workers: campaignWorkers, Cache: store, Sessions: salam.NewSessionPool()}
		submissions := 1
		var ref []byte // rows of the first run; every later run must render the same
		if replay {
			submissions = replaySubmissions
			if ref, err = runLocal(local, jobs); err != nil { // fills the store
				return nil, err
			}
		}
		for i := 0; i < 3; i++ {
			if !replay {
				os.RemoveAll(dir)
				if dir, local.Cache, err = newStore(); err != nil {
					return nil, err
				}
			}
			tr.do("campaign.run_local", func() {
				for r := 0; r < submissions && err == nil; r++ {
					var rows []byte
					if rows, err = runLocal(local, jobs); err != nil {
						return
					}
					if ref == nil {
						ref = rows
					} else if !bytes.Equal(rows, ref) {
						err = fmt.Errorf("local campaign rows changed between runs")
					}
				}
			})
			if err != nil {
				return nil, err
			}
		}
		out := map[string]float64{"campaign.run_local_ms": median(tr.probeSelf("campaign.run_local")) / perMS}
		if replay {
			return out, nil
		}
		cold := campaign.Run(context.Background(), campaign.Config{Workers: campaignWorkers, ColdStart: true}, jobs)
		if err := campaign.FirstError(cold); err != nil {
			return nil, err
		}
		for _, o := range cold {
			addRunCounts(out, o.Result)
		}
		return out, nil
	}
}

func sumCycles(rows []byte) (uint64, error) {
	var sum uint64
	dec := json.NewDecoder(bytes.NewReader(rows))
	for dec.More() {
		var r campaign.Row
		if err := dec.Decode(&r); err != nil {
			return 0, err
		}
		if r.Status != campaign.StatusOK {
			return 0, fmt.Errorf("row %d has status %s", r.Index, r.Status)
		}
		sum += r.Metrics.Cycles
	}
	return sum, nil
}

// newStore opens an empty store in a new directory under outDir.
func newStore() (dir string, store *campaign.Cache, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", nil, err
	}
	if dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
		return "", nil, err
	}
	store, err = campaign.OpenCache(dir)
	return dir, store, err
}

// swapServer puts a new server over store behind the listener and stops
// the previous one.
func (d *dseInst) swapServer(store campaign.Store) error {
	srv, err := serve.NewServer(serve.Config{Store: store, Workers: campaignWorkers, Sessions: d.pool})
	if err != nil {
		return err
	}
	if old := d.cur.Swap(srv); old != nil {
		old.Drain()
		old.Wait()
	}
	return nil
}

// prepare gives a dse_serve op its own server over an empty store, and
// reads the counters the op will move.
func (d *dseInst) prepare() error {
	if !d.replay {
		os.RemoveAll(d.dir)
		var store *campaign.Cache
		var err error
		if d.dir, store, err = newStore(); err != nil {
			return err
		}
		if err := d.swapServer(store); err != nil {
			return err
		}
	}
	return d.getJSON("/statsz", &d.before)
}

func (d *dseInst) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// op submits the space and reads the result stream to its last row — once
// for dse_serve, replaySubmissions times in sequence for dse_replay.
func (d *dseInst) op(tr *tracer) error {
	d.lastRows = d.lastRows[:0]
	for i := 0; i < d.submissions; i++ {
		var results string
		var err error
		tr.do("serve.submit", func() { results, err = d.submit() })
		if err == nil {
			err = d.readRows(tr, results)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readRows reads one campaign's NDJSON stream to its end: the request and
// the first row in one span, the rest of the stream in another.
func (d *dseInst) readRows(tr *tracer, path string) error {
	var resp *http.Response
	var rd *bufio.Reader
	var err error
	tr.do("serve.first_row", func() {
		if resp, err = d.client.Get(d.base + path); err != nil {
			return
		}
		rd = bufio.NewReader(resp.Body)
		var line []byte
		line, err = rd.ReadBytes('\n')
		d.lastRows = append(d.lastRows, line...)
	})
	if resp == nil {
		return err
	}
	defer resp.Body.Close()
	if err != nil {
		return err
	}
	tr.do("serve.stream", func() {
		var rest []byte
		rest, err = io.ReadAll(rd)
		d.lastRows = append(d.lastRows, rest...)
	})
	return err
}

func (d *dseInst) submit() (results string, err error) {
	resp, err := d.client.Post(d.base+"/v1/campaigns", "application/json", bytes.NewReader(d.body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, msg)
	}
	var ack struct {
		Results string `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return "", err
	}
	return ack.Results, nil
}

// verify holds the streamed rows against the local campaign's, byte for
// byte, and the server's counters against the design: a dse_serve op
// simulates every point, a dse_replay op none.
func (d *dseInst) verify() (opOut, error) {
	n := d.submissions
	if want := bytes.Repeat(d.refRows, n); !bytes.Equal(d.lastRows, want) {
		return opOut{}, fmt.Errorf("streamed rows differ from the local campaign's (%d vs %d bytes)", len(d.lastRows), len(want))
	}
	if err := d.getJSON("/statsz", &d.after); err != nil {
		return opOut{}, err
	}
	simulated := d.delta("points_simulated")
	cached := d.delta("points_cached")
	wantSim, wantCached := uint64(d.points), uint64(0)
	if d.replay {
		wantSim, wantCached = 0, uint64(n*d.points)
	}
	if simulated != wantSim || cached != wantCached {
		return opOut{}, fmt.Errorf("server simulated %d points and served %d from the store, want %d and %d",
			simulated, cached, wantSim, wantCached)
	}
	return opOut{Points: n * d.points, Cycles: uint64(n) * d.refCycles}, nil
}

func (d *dseInst) delta(name string) uint64 { return d.after.Serve[name] - d.before.Serve[name] }

func (d *dseInst) counts(into map[string]float64) {
	into["campaign.jobs_simulated"] = float64(d.delta("points_simulated"))
	into["campaign.cache_hits"] = float64(d.delta("points_cached"))
	into["campaign.sessions_built"] = float64(d.after.Sessions.Created - d.before.Sessions.Created)
	into["campaign.sessions_reused"] = float64(d.after.Sessions.Reused - d.before.Sessions.Reused)
	into["serve.rows_bytes_per_op"] = float64(len(d.lastRows))
	into["core.sim_cycles_per_op"] = float64(uint64(d.submissions) * d.refCycles)
}

func (d *dseInst) close() {
	if d.hs != nil {
		d.hs.Close()
		<-d.served
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if srv := d.cur.Load(); srv != nil {
		srv.Drain()
		srv.Wait()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
