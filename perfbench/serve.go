package main

// The serve-read and serve-write workloads: an in-process server on
// loopback, driven over HTTP by this process with at most nproc
// request-issuing goroutines and connections. The untraced run replays an
// open-loop op sequence (latency timed from each op's scheduled arrival),
// then a closed-loop capacity phase; serve-write ends in timed cold
// restarts. The traced run replays the same sequence over HTTP for the
// server's own counters, then calls the layers directly, in handler order,
// with spans around each call.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/profile"
	"valentine/internal/scenario"
	"valentine/internal/server"
	"valentine/internal/table"
	"valentine/internal/wal"
)

// ServeConfig sizes one serve-* workload.
type ServeConfig struct {
	Tables      int     `json:"tables"`
	Rows        int     `json:"rows"`
	ChurnTables int     `json:"churn_tables"`
	ChurnRows   int     `json:"churn_rows"`
	Rate        float64 `json:"rate_qps"`
	Ingest      float64 `json:"mix_ingest"`
	Search      float64 `json:"mix_search"`
	Match       float64 `json:"mix_match"`
	K           int     `json:"k"`
	// OpenShare and CapShare split --seconds between the open-loop replay
	// and the closed-loop capacity phase. The open loop runs as Segments
	// back-to-back segments and the latency end-to-end metrics are medians
	// over them, so one burst of host noise moves at most one segment.
	OpenShare float64 `json:"open_share"`
	CapShare  float64 `json:"capacity_share"`
	Segments  int     `json:"segments"`
	// TailQ is the quantile tail_ms reports.
	TailQ float64 `json:"tail_quantile"`
	// WAL enables the write-ahead log (fsync always) and periodic
	// snapshots every SnapshotEveryMS; it also adds the restart phase.
	WAL             bool `json:"wal"`
	SnapshotEveryMS int  `json:"snapshot_every_ms"`
	SealAfter       int  `json:"seal_after"`
	TailUpserts     int  `json:"tail_upserts"`
	RestartReps     int  `json:"restart_reps"`
	Probes          int  `json:"probes"`
}

// capSegments is how many closed-loop segments the capacity phase runs; its
// rate is their median. Fewer and longer than the open-loop segments, so each
// spans several of the compactions a closed-loop ingest burst triggers.
const capSegments = 3

// serveInputs is everything generated from the seed before timing starts.
type serveInputs struct {
	corpus       *scenario.Corpus
	ops          []scenario.Op
	opsHash      string
	searchBodies [][]byte // per pair: its source table as the query
	matchBodies  [][]byte // per pair: coma-schema over (source, target)
	upsertBodies [][]byte // per churn table
}

func (cfg *ServeConfig) scenario(seed int64, openSeconds float64) (*scenario.Scenario, error) {
	spec := scenario.Scenario{
		Version: scenario.Version,
		Name:    "perfbench",
		Seed:    seed,
		Corpus: scenario.CorpusSpec{
			Tables:      cfg.Tables,
			Rows:        cfg.Rows,
			ChurnTables: cfg.ChurnTables,
			ChurnRows:   cfg.ChurnRows,
			Recipes: []scenario.RecipeSpec{
				{Kind: "unionable", RowOverlap: 0.5},
				{Kind: "unionable", RowOverlap: 0.3, NoisySchema: true, NoisyInstances: true},
				{Kind: "view-unionable", ColOverlap: 0.5},
				{Kind: "joinable", ColOverlap: 0.5, RowOverlap: 0.5},
				{Kind: "semantically-joinable", ColOverlap: 0.5, RowOverlap: 0.5},
			},
		},
		Workload: scenario.WorkloadSpec{
			TargetQPS:   cfg.Rate,
			DurationMS:  int(openSeconds * 1000),
			Mix:         scenario.MixSpec{Ingest: cfg.Ingest, Search: cfg.Search, Match: cfg.Match},
			TopK:        cfg.K,
			MatchMethod: experiment.MethodComaSchema,
		},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return scenario.Parse(bytes.NewReader(raw)) // validates and applies defaults
}

func tableJSON(t *table.Table) server.TableJSON {
	tj := server.TableJSON{Name: t.Name, Columns: make([]server.ColumnJSON, len(t.Columns))}
	for i := range t.Columns {
		tj.Columns[i] = server.ColumnJSON{Name: t.Columns[i].Name, Values: t.Columns[i].Values}
	}
	return tj
}

func makeServeInputs(cfg *ServeConfig, seed int64, openSeconds float64) (*serveInputs, error) {
	sc, err := cfg.scenario(seed, openSeconds)
	if err != nil {
		return nil, err
	}
	c, err := sc.Materialize()
	if err != nil {
		return nil, err
	}
	in := &serveInputs{corpus: c, ops: sc.Ops(c)}
	in.opsHash = scenario.OpsHash(in.ops)
	for _, p := range c.Pairs {
		src, tgt := c.Tables[p.Source], c.Tables[p.Target]
		sb, err := json.Marshal(server.SearchRequest{Table: tableJSON(src), Mode: "join", K: cfg.K})
		if err != nil {
			return nil, err
		}
		mb, err := json.Marshal(server.MatchRequest{Source: tableJSON(src), Target: tableJSON(tgt), Method: experiment.MethodComaSchema})
		if err != nil {
			return nil, err
		}
		in.searchBodies = append(in.searchBodies, sb)
		in.matchBodies = append(in.matchBodies, mb)
	}
	for _, t := range c.Churn {
		ub, err := json.Marshal(server.UpsertRequest{Columns: tableJSON(t).Columns})
		if err != nil {
			return nil, err
		}
		in.upsertBodies = append(in.upsertBodies, ub)
	}
	return in, nil
}

// buildSnapshot indexes the corpus and writes it as a v2 snapshot into each
// of dirs.
func buildSnapshot(cfg *ServeConfig, c *scenario.Corpus, dirs ...string) error {
	ix := discovery.New(discovery.Options{SealAfter: cfg.SealAfter})
	for _, t := range c.Tables {
		if err := ix.Upsert(t); err != nil {
			return fmt.Errorf("preloading %s: %w", t.Name, err)
		}
	}
	for _, d := range dirs {
		if err := ix.SaveSnapshot(d); err != nil {
			return err
		}
	}
	return nil
}

// client is a thin HTTP client over the server's wire types. It never
// retries: a shed or failed request is a failed op.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// waitHealthy polls /v1/healthz until the server reports status ok.
func (c *client) waitHealthy(ctx context.Context) error {
	for {
		var h server.HealthResponse
		err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not healthy: %w (last: %v, status %q)", ctx.Err(), err, h.Status)
		case <-time.After(time.Millisecond):
		}
	}
}

// serveEnv is one running server plus what the run has acknowledged.
type serveEnv struct {
	cfg     *ServeConfig
	in      *serveInputs
	dir     string // snapshot directory the server loaded (and saves to)
	walPath string
	proc    *scenario.InProcess
	cl      *client
	acked   map[string]*table.Table // every table the server acknowledged
	ackMu   sync.Mutex
}

func (e *serveEnv) ack(t *table.Table) {
	e.ackMu.Lock()
	e.acked[t.Name] = t
	e.ackMu.Unlock()
}

// start restores the snapshot and serves it. With snapshots off, a WAL
// server runs no snapshot loop, so Close leaves the log and its tail in place.
func (e *serveEnv) start(ctx context.Context, conns int, tr *Tracer, snapshots bool) error {
	tr.Begin()
	tr.Start("discovery.load_snapshot")
	ix, err := discovery.LoadSnapshot(e.dir)
	tr.End()
	if err != nil {
		return err
	}
	sc := server.Config{Index: ix}
	if e.cfg.WAL {
		sc.WALPath, sc.WALSync = e.walPath, wal.SyncAlways
		if snapshots {
			sc.SnapshotDir = e.dir
			sc.SnapshotEvery = time.Duration(e.cfg.SnapshotEveryMS) * time.Millisecond
		}
	}
	p, err := scenario.StartInProcessConfig(sc)
	if err != nil {
		ix.Close()
		return err
	}
	e.proc = p
	e.cl = newClient(p.URL, conns)
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return e.cl.waitHealthy(rctx)
}

func (e *serveEnv) stop() error {
	if e.proc == nil {
		return nil
	}
	e.cl.tr.CloseIdleConnections()
	ix := e.proc.Index()
	err := e.proc.Close()
	if cerr := ix.Close(); err == nil {
		err = cerr
	}
	e.proc = nil
	return err
}

// warm runs a few requests of every kind before the first timed op.
func (e *serveEnv) warm(ctx context.Context) error {
	c := e.in.corpus
	for i := 0; i < 8 && i < len(c.Pairs); i++ {
		if err := e.cl.do(ctx, http.MethodPost, "/v1/search", e.in.searchBodies[i], nil); err != nil {
			return fmt.Errorf("warm-up search: %w", err)
		}
	}
	if err := e.cl.do(ctx, http.MethodPost, "/v1/match", e.in.matchBodies[0], nil); err != nil {
		return fmt.Errorf("warm-up match: %w", err)
	}
	if err := e.cl.do(ctx, http.MethodPut, "/v1/tables/"+c.Churn[0].Name, e.in.upsertBodies[0], nil); err != nil {
		return fmt.Errorf("warm-up upsert: %w", err)
	}
	e.ack(c.Churn[0])
	return nil
}

// setupServe generates the inputs, builds and restores the snapshot, starts
// the server and warms it: everything before the first timed op. extra
// names additional copies of the initial snapshot (the traced run's direct
// pass restores one).
func setupServe(ctx context.Context, r *Run, cfg *ServeConfig, dir string, extra ...string) (*serveEnv, error) {
	in, err := makeServeInputs(cfg, r.seed, cfg.OpenShare*float64(r.seconds))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snap := filepath.Join(dir, "snapshot")
	if err := buildSnapshot(cfg, in.corpus, append([]string{snap}, extra...)...); err != nil {
		return nil, err
	}
	e := &serveEnv{cfg: cfg, in: in, dir: snap, walPath: filepath.Join(dir, "wal.log"), acked: make(map[string]*table.Table)}
	for _, t := range in.corpus.Tables {
		e.acked[t.Name] = t
	}
	if err := e.start(ctx, r.conns, r.tracer, true); err != nil {
		return nil, err
	}
	if err := e.warm(ctx); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

// repeatedSetup runs the set-up SetupReps times in fresh directories and keeps
// the last one; setup_s is the median.
func repeatedSetup(ctx context.Context, r *Run, cfg *ServeConfig) (*serveEnv, error) {
	var times []float64
	var env *serveEnv
	for i := 0; i < r.cfg.SetupReps; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		e, err := setupServe(ctx, r, cfg, filepath.Join(r.work, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	r.setup(times)
	return env, nil
}

// openLoopResult is what one open-loop replay measured.
type openLoopResult struct {
	lat       map[scenario.OpKind]*Samples
	lag       Samples
	attempted int
	failed    int
}

// openLoop replays ops at a fixed rate. One dispatcher releases each op at
// its scheduled time to `workers` request goroutines; every latency is timed
// from the scheduled arrival, so a stall also charges the ops queued behind
// it.
func (e *serveEnv) openLoop(ctx context.Context, ops []scenario.Op, workers int) *openLoopResult {
	type timed struct {
		op  scenario.Op
		due time.Time
	}
	type done struct {
		kind scenario.OpKind
		d    time.Duration
		err  error
	}
	queue := make(chan timed, len(ops)) // sized to the number of sends: the dispatcher never blocks
	results := make([][]done, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				err := e.execute(ctx, t.op)
				results[w] = append(results[w], done{kind: t.op.Kind, d: time.Since(t.due), err: err})
			}
		}()
	}
	res := &openLoopResult{lat: map[scenario.OpKind]*Samples{
		scenario.OpSearch: {}, scenario.OpIngest: {}, scenario.OpMatch: {},
	}}
	interval := time.Duration(float64(time.Second) / e.cfg.Rate)
	start := time.Now()
	for i, op := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lag.Add(time.Since(due))
		queue <- timed{op: op, due: due}
	}
	close(queue)
	wg.Wait()
	for _, rs := range results {
		for _, d := range rs {
			res.attempted++
			if d.err != nil {
				res.failed++
				res.lat[d.kind].Fail()
				continue
			}
			res.lat[d.kind].Add(d.d)
		}
	}
	return res
}

// mergeOpenLoop pools the samples of every segment.
func mergeOpenLoop(segs []*openLoopResult) *openLoopResult {
	out := &openLoopResult{lat: map[scenario.OpKind]*Samples{}}
	for _, sg := range segs {
		for k, s := range sg.lat {
			if out.lat[k] == nil {
				out.lat[k] = &Samples{}
			}
			out.lat[k].v = append(out.lat[k].v, s.v...)
		}
		out.lag.v = append(out.lag.v, sg.lag.v...)
		out.attempted += sg.attempted
		out.failed += sg.failed
	}
	return out
}

func (e *serveEnv) execute(ctx context.Context, op scenario.Op) error {
	c := e.in.corpus
	switch op.Kind {
	case scenario.OpIngest:
		t := c.Churn[op.Index]
		if err := e.cl.do(ctx, http.MethodPut, "/v1/tables/"+t.Name, e.in.upsertBodies[op.Index], nil); err != nil {
			return err
		}
		e.ack(t)
		return nil
	case scenario.OpSearch:
		return e.cl.do(ctx, http.MethodPost, "/v1/search", e.in.searchBodies[op.Index], nil)
	default:
		return e.cl.do(ctx, http.MethodPost, "/v1/match", e.in.matchBodies[op.Index], nil)
	}
}

// closedLoop runs `workers` clients back to back for d and returns the
// completed-op rate.
func closedLoop(workers int, d time.Duration, fn func(i int) error) (rate float64, attempted, failed int) {
	var next, ok, bad atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				if err := fn(int(next.Add(1) - 1)); err != nil {
					bad.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(ok.Load()) / elapsed, int(ok.Load() + bad.Load()), int(bad.Load())
}

// probeGate checks the served catalog against a clean-room rebuild from the
// acknowledged tables: every probe's top-k must match exactly.
func probeGate(ctx context.Context, served *discovery.Index, acked map[string]*table.Table, c *scenario.Corpus, probes, k int) error {
	clean := discovery.New(discovery.Options{})
	names := make([]string, 0, len(acked))
	for n := range acked {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := clean.Upsert(acked[n]); err != nil {
			return err
		}
	}
	if served.NumTables() != clean.NumTables() {
		return fmt.Errorf("served catalog holds %d tables, the acknowledged set %d", served.NumTables(), clean.NumTables())
	}
	for i := 0; i < probes && i < len(c.Pairs); i++ {
		q := c.Tables[c.Pairs[i].Source]
		got, err := served.SearchContext(ctx, q, discovery.ModeJoin, k)
		if err != nil {
			return err
		}
		want, err := clean.SearchContext(ctx, q, discovery.ModeJoin, k)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("probe %s: %d results, clean-room rebuild %d", q.Name, len(got), len(want))
		}
		for j := range got {
			if got[j].Table != want[j].Table || got[j].Score != want[j].Score {
				return fmt.Errorf("probe %s rank %d: served %s %.6f, clean-room %s %.6f",
					q.Name, j, got[j].Table, got[j].Score, want[j].Table, want[j].Score)
			}
		}
	}
	return nil
}

func runServe(ctx context.Context, r *Run, cfg *ServeConfig) error {
	if r.traced {
		return runServeTraced(ctx, r, cfg)
	}
	env, err := repeatedSetup(ctx, r, cfg)
	if err != nil {
		return err
	}
	defer env.stop()
	in := env.in
	r.hashes(in.corpus.Hash, in.opsHash)

	heap := startHeapSampler()
	var segs []*openLoopResult
	n := cfg.Segments
	for i := 0; i < n; i++ {
		ol := env.openLoop(ctx, in.ops[i*len(in.ops)/n:(i+1)*len(in.ops)/n], r.conns)
		r.count(ol.attempted, ol.failed)
		segs = append(segs, ol)
	}
	ol := mergeOpenLoop(segs)

	capDur := time.Duration(cfg.CapShare * float64(r.seconds) * float64(time.Second) / capSegments)
	c := in.corpus
	capRates := make([]float64, capSegments)
	for i := range capRates {
		op := func(k int) error {
			return env.cl.do(ctx, http.MethodPost, "/v1/search", in.searchBodies[(k*7919)%len(in.searchBodies)], nil)
		}
		if cfg.WAL {
			op = func(k int) error {
				j := k % len(c.Churn)
				if err := env.cl.do(ctx, http.MethodPut, "/v1/tables/"+c.Churn[j].Name, in.upsertBodies[j], nil); err != nil {
					return err
				}
				env.ack(c.Churn[j])
				return nil
			}
		}
		var attempted, failed int
		capRates[i], attempted, failed = closedLoop(r.conns, capDur, op)
		r.count(attempted, failed)
	}
	capRate := median(capRates)
	peak := heap.Stop()

	r.gated("setup_s", r.setupS, r.cfg.SetupReps)
	r.gated("peak_heap_mb", peak, 0)
	head := scenario.OpSearch
	if cfg.WAL {
		head = scenario.OpIngest
	}
	r.segmented(segs, head, cfg.TailQ, capRate, capSegments)
	search, ingest, match := ol.lat[scenario.OpSearch], ol.lat[scenario.OpIngest], ol.lat[scenario.OpMatch]
	if cfg.WAL {
		r.pooled("ingest", ingest)
		r.pooled("search", search)
		r.named("ingest_capacity_ops", "1/s", capRate, capSegments)
	} else {
		r.pooled("search", search)
		r.named("search_capacity_qps", "1/s", capRate, capSegments)
	}
	r.named("match_p50_ms", "ms", match.Quantile(0.5), match.N())
	r.note("loadgen lag p99 %.3f ms over %d releases; open loop %.0f qps × %d ops",
		ol.lag.Quantile(0.99), ol.lag.N(), cfg.Rate, len(in.ops))
	offered := cfg.Rate * cfg.Search
	if cfg.WAL {
		offered = cfg.Rate * cfg.Ingest
	}
	r.note("open loop offers %.0f %s ops/s, %.0f%% of the closed-loop capacity of %.0f/s measured in this run",
		offered, head, 100*offered/capRate, capRate)

	served := env.proc.Index()
	served.WaitCompaction()
	r.check("probe top-k equals clean-room rebuild", probeGate(ctx, served, env.acked, c, cfg.Probes, cfg.K))
	if !cfg.WAL {
		return nil
	}
	return restartPhase(ctx, r, env)
}

// restartPhase closes the server (final snapshot, WAL truncated), leaves a
// WAL tail of acknowledged upserts behind a server with no snapshot loop,
// then times cold restarts — snapshot load plus tail replay until healthz is
// ok — and checks every acknowledged upsert survived.
func restartPhase(ctx context.Context, r *Run, env *serveEnv) error {
	if err := env.stop(); err != nil {
		return err
	}
	cfg := env.cfg
	tail := &serveEnv{cfg: cfg, in: env.in, dir: env.dir, walPath: env.walPath, acked: env.acked}
	if err := tail.start(ctx, r.conns, nil, false); err != nil {
		return err
	}
	c := env.in.corpus
	for i := 0; i < cfg.TailUpserts; i++ {
		src := c.Churn[i%len(c.Churn)]
		t := src.Clone()
		t.Name = fmt.Sprintf("tail%04d_%s", i, src.Name)
		body, err := json.Marshal(server.UpsertRequest{Columns: tableJSON(t).Columns})
		if err != nil {
			return err
		}
		if err := tail.cl.do(ctx, http.MethodPut, "/v1/tables/"+t.Name, body, nil); err != nil {
			return fmt.Errorf("tail upsert: %w", err)
		}
		tail.ack(t)
	}
	if err := tail.stop(); err != nil {
		return err
	}

	restarts := &Samples{}
	for i := 0; i < cfg.RestartReps; i++ {
		re := &serveEnv{cfg: cfg, in: env.in, dir: env.dir, walPath: env.walPath, acked: env.acked}
		t0 := time.Now()
		if err := re.start(ctx, r.conns, nil, false); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		restarts.Add(time.Since(t0))
		if i == cfg.RestartReps-1 {
			ix := re.proc.Index()
			missing := 0
			for name, t := range env.acked {
				if ps := ix.Profiles(name); len(ps) != t.NumColumns() {
					missing++
				}
			}
			var err error
			if missing > 0 {
				err = fmt.Errorf("%d of %d acknowledged tables missing after restart", missing, len(env.acked))
			}
			r.check("every acknowledged upsert present after restart", err)
			r.check("restarted probe top-k equals clean-room rebuild", probeGate(ctx, ix, env.acked, c, cfg.Probes, cfg.K))
		}
		if err := re.stop(); err != nil {
			return err
		}
	}
	r.named("restart_s", "s", restarts.Quantile(0.5)/1000, restarts.N())
	return nil
}

// runServeTraced is the per-layer run: the same op sequence over HTTP for
// the server's counters and the load generator's lateness, then a direct
// pass calling each layer in handler order with spans.
func runServeTraced(ctx context.Context, r *Run, cfg *ServeConfig) error {
	direct := filepath.Join(r.work, "direct-snapshot")
	env, err := setupServe(ctx, r, cfg, filepath.Join(r.work, "setup"), direct)
	if err != nil {
		return err
	}
	defer env.stop()
	in := env.in
	r.hashes(in.corpus.Hash, in.opsHash)

	// HTTP phase: the first half of the sequence, for /v1/stats and lag.
	ol := env.openLoop(ctx, in.ops[:len(in.ops)/2], r.conns)
	r.count(ol.attempted, ol.failed)
	var st server.StatsResponse
	if err := env.cl.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return err
	}
	if st.Server.Batches > 0 {
		r.layer("server.ops_per_batch", float64(st.Server.BatchedOps)/float64(st.Server.Batches))
	}
	r.layer("server.shed_ops", float64(st.Server.IngestShed))
	r.layer("loadgen.lag_p99_ms", ol.lag.Quantile(0.99))
	if err := env.stop(); err != nil {
		return err
	}

	d, err := newDirect(cfg, direct, filepath.Join(r.work, "direct.wal"), in)
	if err != nil {
		return err
	}
	defer d.close()
	budget := time.Duration(0.5 * float64(r.seconds) * float64(time.Second))
	if err := d.pass(ctx, r, budget); err != nil {
		return err
	}
	if cfg.WAL {
		if err := d.restart(r); err != nil {
			return err
		}
	}
	d.ix.WaitCompaction()
	r.check("direct-pass probe top-k equals clean-room rebuild", probeGate(ctx, d.ix, d.applied, in.corpus, cfg.Probes, cfg.K))
	return nil
}

// direct is the traced pass's own catalog (and WAL), driven by calling the
// layers the handlers call, in their order.
type direct struct {
	cfg     *ServeConfig
	in      *serveInputs
	dir     string
	walPath string
	ix      *discovery.Index
	log     *wal.Log
	dictLow int
	sigLen  int
	reg     *core.Registry
	applied map[string]*table.Table // corpus plus every upsert applied
}

func newDirect(cfg *ServeConfig, dir, walPath string, in *serveInputs) (*direct, error) {
	ix, err := discovery.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	o := ix.Options()
	sigLen, _, _ := profile.Geometry(o.Signature, o.Bands)
	d := &direct{cfg: cfg, in: in, dir: dir, walPath: walPath, ix: ix, sigLen: sigLen, reg: experiment.NewRegistry(),
		applied: make(map[string]*table.Table)}
	for _, t := range in.corpus.Tables {
		d.applied[t.Name] = t
	}
	if cfg.WAL {
		res, err := wal.Open(walPath, ix.Lineage(), ix.Epoch(), wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			ix.Close()
			return nil, err
		}
		d.log = res.Log
		d.dictLow = ix.Dict().Len()
	}
	return d, nil
}

func (d *direct) close() {
	if d.log != nil {
		d.log.Close()
	}
	d.ix.Close()
}

// layerCounters accumulates the direct pass's counted (not timed) signals.
type layerCounters struct {
	queries, ingests     int
	candidates           int64
	pruned, scored       int64
	scoreNs, rankNs      int64
	newValues            int
	walBytes             int64
	snapshots            int
	snapBytes            int64
	compactions, maxSegs int
}

func (d *direct) pass(ctx context.Context, r *Run, budget time.Duration) error {
	var lc layerCounters
	traced, untraced := map[scenario.OpKind]*Samples{}, map[scenario.OpKind]*Samples{}
	for _, k := range []scenario.OpKind{scenario.OpSearch, scenario.OpIngest, scenario.OpMatch} {
		traced[k], untraced[k] = &Samples{}, &Samples{}
	}
	snapEvery := int(d.cfg.Rate * d.cfg.Ingest * float64(d.cfg.SnapshotEveryMS) / 1000)
	if snapEvery < 1 {
		snapEvery = 1
	}
	before := readRuntime()
	segs := d.ix.Stats().SealedSegments
	start := time.Now()
	n := 0
	for i, op := range d.in.ops {
		if time.Since(start) > budget {
			break
		}
		tr := r.tracer
		if i%2 == 1 {
			tr = nil // every other op runs untraced: the tracing-overhead baseline
		}
		tr.Begin()
		t0 := time.Now()
		var err error
		switch op.Kind {
		case scenario.OpSearch:
			err = d.search(ctx, tr, op.Index, &lc)
		case scenario.OpIngest:
			err = d.ingest(tr, op.Index, &lc)
		default:
			err = d.match(ctx, tr, op.Index)
		}
		if err != nil {
			return fmt.Errorf("direct %s: %w", op.Kind, err)
		}
		if tr != nil {
			traced[op.Kind].Add(time.Since(t0))
		} else {
			untraced[op.Kind].Add(time.Since(t0))
		}
		n++
		if s := d.ix.Stats().SealedSegments; s < segs {
			lc.compactions++
			segs = s
		} else {
			segs = s
			lc.maxSegs = max(lc.maxSegs, s)
		}
		if d.log != nil && op.Kind == scenario.OpIngest && lc.ingests%snapEvery == 0 {
			if err := d.snapshot(r.tracer, &lc); err != nil {
				return err
			}
		}
	}
	after := readRuntime()
	stats := r.tracer.Stats()
	for _, name := range []string{"server.decode", "server.encode", "profile.query", "profile.ingest",
		"profile.pair", "discovery.search", "discovery.replay_form", "discovery.apply",
		"discovery.snapshot", "discovery.load_snapshot", "wal.append", "wal.truncate"} {
		r.layer(name+"_us", stats[name].MeanSelfUS())
	}
	r.layer("matchers.coma-schema.match_us", stats["matchers.coma-schema"].MeanSelfUS())
	if lc.queries > 0 {
		r.layer("discovery.score_us", float64(lc.scoreNs)/float64(lc.queries)/1e3)
		r.layer("discovery.rank_us", float64(lc.rankNs)/float64(lc.queries)/1e3)
		r.layer("discovery.candidates_per_query", float64(lc.candidates)/float64(lc.queries))
	}
	if lc.pruned+lc.scored > 0 {
		r.layer("discovery.prune_ratio", float64(lc.pruned)/float64(lc.pruned+lc.scored))
	}
	if lc.ingests > 0 {
		r.layer("intern.new_values_per_op", float64(lc.newValues)/float64(lc.ingests))
		r.layer("wal.bytes_per_op", float64(lc.walBytes)/float64(lc.ingests))
	}
	st := d.ix.Stats()
	r.layer("intern.dict_entries", float64(st.DictEntries))
	r.layer("discovery.sealed_segments", float64(max(lc.maxSegs, st.SealedSegments)))
	r.layer("discovery.compactions", float64(lc.compactions))
	if lc.snapshots > 0 {
		r.layer("discovery.snapshot_bytes", float64(lc.snapBytes)/float64(lc.snapshots))
	}
	r.runtimeLayers(before, after, n)
	head := scenario.OpSearch
	if d.cfg.WAL {
		head = scenario.OpIngest
	}
	r.overhead(traced[head], untraced[head])
	r.note("direct pass: %d of %d ops in %.2fs", n, len(d.in.ops), time.Since(start).Seconds())
	return nil
}

// search mirrors the search handler: decode → query profile → discovery →
// encode.
func (d *direct) search(ctx context.Context, tr *Tracer, pair int, lc *layerCounters) error {
	tr.Start("op.search")
	defer tr.End()
	var req server.SearchRequest
	var q *table.Table
	var err error
	tr.Span("server.decode", func() {
		if err = json.Unmarshal(d.in.searchBodies[pair], &req); err != nil {
			return
		}
		q = table.New(req.Table.Name)
		for _, c := range req.Table.Columns {
			q.AddColumn(c.Name, c.Values)
		}
		err = discovery.ValidateQuery(q)
	})
	if err != nil {
		return err
	}
	var qp *profile.TableProfile
	tr.Span("profile.query", func() {
		qp = profile.NewHashSharing(q, d.ix.Dict())
		qp.NameTokens()
		for _, p := range qp.Columns() {
			p.Signature(d.sigLen)
		}
	})
	sctx, stats := engine.WithStats(ctx)
	var res []discovery.Result
	tr.Span("discovery.search", func() {
		res, err = d.ix.SearchProfiledContext(sctx, qp, discovery.ModeJoin, req.K)
	})
	if err != nil {
		return err
	}
	sn := stats.Snapshot()
	lc.queries++
	lc.candidates += sn.Candidates
	lc.pruned += sn.Pruned
	lc.scored += sn.Scored
	lc.scoreNs += int64(sn.Score)
	lc.rankNs += int64(sn.Rank)
	tr.Span("server.encode", func() {
		resp := server.SearchResponse{Stats: sn, Results: make([]server.SearchResult, len(res))}
		for i, x := range res {
			resp.Results[i] = server.SearchResult{Table: x.Table, Score: x.Score, BestQuery: x.BestQuery, BestIndexed: x.BestIndexed, Candidates: x.Candidates}
		}
		_, err = json.Marshal(resp)
	})
	return err
}

// ingest mirrors the upsert handler plus its batcher, one op per batch:
// decode → profile → ReplayForm → wal.Append → ApplyReplayOps.
func (d *direct) ingest(tr *Tracer, idx int, lc *layerCounters) error {
	tr.Start("op.ingest")
	defer tr.End()
	name := d.in.corpus.Churn[idx].Name
	var req server.UpsertRequest
	t := table.New(name)
	var err error
	tr.Span("server.decode", func() {
		if err = json.Unmarshal(d.in.upsertBodies[idx], &req); err != nil {
			return
		}
		for _, c := range req.Columns {
			t.AddColumn(c.Name, c.Values)
		}
		err = t.Validate()
	})
	if err != nil {
		return err
	}
	dict0 := d.ix.Dict().Len()
	var tp *profile.TableProfile
	tr.Span("profile.ingest", func() {
		tp = profile.NewInterned(t, d.ix.Dict())
		for i := 0; i < tp.NumColumns(); i++ {
			p := tp.Column(i)
			p.Signature(d.sigLen)
			p.NameTokens()
			p.Distinct()
		}
	})
	var rop discovery.ReplayOp
	tr.Span("discovery.replay_form", func() { rop, err = d.ix.ReplayForm(discovery.Op{Upsert: tp}) })
	if err != nil {
		return err
	}
	lc.newValues += d.ix.Dict().Len() - dict0
	if d.log != nil {
		hi := d.ix.Dict().Len()
		size0 := d.log.Size()
		tr.Span("wal.append", func() {
			_, err = d.log.Append([]discovery.ReplayOp{rop}, d.dictLow, d.ix.Dict().Entries(d.dictLow, hi))
		})
		if err != nil {
			return err
		}
		lc.walBytes += d.log.Size() - size0
		d.dictLow = hi
	}
	var errs []error
	tr.Span("discovery.apply", func() { errs = d.ix.ApplyReplayOps([]discovery.ReplayOp{rop}) })
	lc.ingests++
	d.applied[name] = d.in.corpus.Churn[idx]
	return errors.Join(errs...)
}

// match mirrors the match handler for coma-schema: decode → pair profile →
// matcher → encode.
func (d *direct) match(ctx context.Context, tr *Tracer, pair int) error {
	tr.Start("op.match")
	defer tr.End()
	var req server.MatchRequest
	var src, tgt *table.Table
	var err error
	build := func(tj server.TableJSON) *table.Table {
		t := table.New(tj.Name)
		for _, c := range tj.Columns {
			t.AddColumn(c.Name, c.Values)
		}
		return t
	}
	tr.Span("server.decode", func() {
		if err = json.Unmarshal(d.in.matchBodies[pair], &req); err != nil {
			return
		}
		src, tgt = build(req.Source), build(req.Target)
	})
	if err != nil {
		return err
	}
	m, err := d.reg.New(req.Method, core.Params(req.Params))
	if err != nil {
		return err
	}
	var sp, tp *profile.TableProfile
	// Like the handler, build the pair's profiles lazily: the matcher
	// computes only the signals it reads.
	tr.Span("profile.pair", func() { sp, tp = core.ProfilePair(nil, src, tgt) })
	var matches []core.Match
	tr.Span("matchers.coma-schema", func() {
		if cm, ok := m.(core.CascadeMatcher); ok {
			matches, _, err = cm.MatchCascade(ctx, sp, tp, req.Top)
		} else {
			matches, err = core.MatchProfilesWithContext(ctx, m, sp, tp)
		}
	})
	if err != nil {
		return err
	}
	tr.Span("server.encode", func() {
		resp := server.MatchResponse{Method: req.Method, Matches: make([]server.MatchJSON, len(matches))}
		for i, x := range matches {
			resp.Matches[i] = server.MatchJSON{SourceColumn: x.SourceColumn, TargetColumn: x.TargetColumn, Score: x.Score}
		}
		_, err = json.Marshal(resp)
	})
	return err
}

// snapshot mirrors the server's snapshot step: save, then truncate the WAL
// through the last applied sequence.
func (d *direct) snapshot(tr *Tracer, lc *layerCounters) error {
	low, e0 := d.log.LastSeq(), d.ix.Epoch()
	var err error
	tr.Span("discovery.snapshot", func() { err = d.ix.SaveSnapshot(d.dir) })
	if err != nil {
		return err
	}
	tr.Span("wal.truncate", func() { err = d.log.TruncateThrough(low, e0) })
	if err != nil {
		return err
	}
	lc.snapshots++
	lc.snapBytes += dirBytes(d.dir)
	return nil
}

// restart closes the direct catalog and reopens it the way server start-up
// does: load snapshot, open WAL, replay the tail.
func (d *direct) restart(r *Run) error {
	tables := d.ix.NumTables()
	d.ix.WaitCompaction()
	if err := d.log.Close(); err != nil {
		return err
	}
	d.log = nil
	if err := d.ix.Close(); err != nil {
		return err
	}
	tr := r.tracer
	tr.Begin()
	var err error
	var ix *discovery.Index
	tr.Span("discovery.load_snapshot", func() { ix, err = discovery.LoadSnapshot(d.dir) })
	if err != nil {
		return err
	}
	d.ix = ix
	var res *wal.OpenResult
	tr.Span("wal.open", func() { res, err = wal.Open(d.walPath, ix.Lineage(), ix.Epoch(), wal.Options{Sync: wal.SyncAlways}) })
	if err != nil {
		return err
	}
	d.log = res.Log
	tr.Span("wal.replay", func() { err = wal.ReplayInto(ix, res.Records) })
	if err != nil {
		return err
	}
	stats := tr.Stats()
	for _, name := range []string{"discovery.load_snapshot", "wal.open", "wal.replay"} {
		r.layer(name+"_us", stats[name].MeanSelfUS())
	}
	if ix.NumTables() != tables {
		err = fmt.Errorf("direct restart: %d tables, %d before", ix.NumTables(), tables)
	}
	r.check("direct restart recovers every applied upsert", err)
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			if info, ierr := de.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
