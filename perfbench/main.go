// Command perfbench is the repository's benchmark of record. It runs one
// named workload for a fixed time, checks the program's outputs, and prints
// every metric by name with its unit and sample count; the last line of
// standard output is one JSON object with the gated metrics.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload serve-read --seed 1 --seconds 20 --trace 0
//	perfbench compare base.json new.json
//
// Workloads: serve-read, serve-write, table5, discover-rerank. With
// --trace 1 the run calls each layer directly with spans around every call
// and reports per-layer metrics instead. Every run writes its full result
// (provenance included) under .bench_build/results and its spans under
// .bench_build/traces.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"valentine/internal/scenario"
)

// heldOutSeed is the seed reserved for confirming a claimed gain after the
// change was written against other seeds.
const heldOutSeed = 9001

// Config is the resolved configuration of one run; its hash (seed and trace
// excluded) decides whether two results are comparable.
type Config struct {
	Workload  string          `json:"workload"`
	Seconds   int             `json:"seconds"`
	SetupReps int             `json:"setup_reps"`
	Serve     *ServeConfig    `json:"serve,omitempty"`
	Table5    *Table5Config   `json:"table5,omitempty"`
	Discover  *DiscoverConfig `json:"discover,omitempty"`
}

// Hash is the sha256 of the configuration's canonical JSON.
func (c Config) Hash() string {
	raw, _ := json.Marshal(c)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// gatedUnits lists the end-to-end metrics every workload reports, with units.
var gatedUnits = map[string]string{
	"setup_s":          "s",
	"peak_heap_mb":     "MB",
	"latency_ms":       "ms",
	"tail_ms":          "ms",
	"mean_ms":          "ms",
	"throughput_per_s": "1/s",
}

// layerNames lists every per-layer metric; a traced run reports each one
// (0 where the workload does not exercise the layer).
var layerNames = func() []string {
	names := []string{
		"server.decode_us", "server.encode_us", "server.ops_per_batch", "server.shed_ops",
		"loadgen.lag_p99_ms",
		"profile.query_us", "profile.ingest_us", "profile.pair_us",
		"intern.new_values_per_op", "intern.dict_entries",
		"discovery.search_us", "discovery.score_us", "discovery.rank_us",
		"discovery.candidates_per_query", "discovery.prune_ratio",
		"discovery.replay_form_us", "discovery.apply_us",
		"discovery.snapshot_us", "discovery.snapshot_bytes", "discovery.sealed_segments",
		"discovery.compactions", "discovery.load_snapshot_us", "discovery.probe_us",
		"wal.append_us", "wal.bytes_per_op", "wal.truncate_us", "wal.open_us", "wal.replay_us",
		"planner.rerank_us", "planner.bound_us", "planner.refine_us", "planner.refined_per_query",
	}
	for _, m := range ensembleMethods {
		names = append(names, "planner."+m+".prune_rate")
	}
	for _, m := range table5Methods() {
		names = append(names, "matchers."+m+".pair_ms", "matchers."+m+".recall")
	}
	return append(names, "matchers.coma-schema.match_us",
		"runtime.alloc_bytes_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms",
		"trace.overhead_pct")
}()

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, "bytes_per_op"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, ".recall"):
		return "ratio"
	}
	return "count"
}

// Metric is one reported value.
type Metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

// Provenance pins down what produced a result.
type Provenance struct {
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	SourceHash  string `json:"source_hash"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	ConfigHash  string `json:"config_hash"`
	CorpusHash  string `json:"corpus_hash"`
	OpsHash     string `json:"ops_hash"`
}

// Gate is one correctness check.
type Gate struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Result is everything one run measured and checked.
type Result struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Config     Config     `json:"config"`
	Provenance Provenance `json:"provenance"`
	Gates      []Gate     `json:"gates"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Named      []Metric   `json:"named"`
	Gated      []Metric   `json:"end_to_end,omitempty"`
	Layers     []Metric   `json:"per_layer,omitempty"`
	Notes      []string   `json:"notes,omitempty"`
}

// Correct reports whether every gate passed.
func (r *Result) Correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return len(r.Gates) > 0
}

// Run is the state one workload run writes its measurements into.
type Run struct {
	cfg     Config
	seed    int64
	seconds int
	traced  bool
	conns   int // request-issuing goroutines and HTTP connections: nproc
	work    string
	tracer  *Tracer
	res     *Result
	setupS  float64
	layers  map[string]float64
}

func (r *Run) setup(times []float64) { r.setupS = median(times) }

func (r *Run) hashes(corpus, ops string) {
	r.res.Provenance.CorpusHash, r.res.Provenance.OpsHash = corpus, ops
}

func (r *Run) count(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

func (r *Run) named(name, unit string, v float64, n int) {
	r.res.Named = append(r.res.Named, Metric{Name: name, Unit: unit, Value: v, Samples: n})
}

func (r *Run) gated(name string, v float64, n int) {
	r.res.Gated = append(r.res.Gated, Metric{Name: name, Unit: gatedUnits[name], Value: v, Samples: n})
}

// segmented binds the open-loop headline op to the latency end-to-end
// metrics as medians over segments, and the capacity to throughput.
func (r *Run) segmented(segs []*openLoopResult, kind scenario.OpKind, tailQ, throughput float64, capSegs int) {
	var p50, tail, mean []float64
	n := 0
	for _, sg := range segs {
		s := sg.lat[kind]
		p50 = append(p50, s.Quantile(0.5))
		tail = append(tail, s.Quantile(tailQ))
		mean = append(mean, s.Mean())
		n += s.N()
	}
	r.gated("latency_ms", median(p50), n)
	r.gated("tail_ms", median(tail), n)
	r.gated("mean_ms", median(mean), n)
	r.gated("throughput_per_s", throughput, capSegs)
}

// pooled reports one op kind's exact quantiles over every open-loop sample.
func (r *Run) pooled(what string, s *Samples) {
	r.named(what+"_p50_ms", "ms", s.Quantile(0.5), s.N())
	r.named(what+"_p90_ms", "ms", s.Quantile(0.9), s.N())
	r.named(what+"_p99_ms", "ms", s.Quantile(0.99), s.N())
	if n := s.Beyond(0.99); n < 10 {
		r.note("%s p99 has only %d samples beyond it (of %d)", what, n, s.N())
	}
}

func (r *Run) layer(name string, v float64) { r.layers[name] = v }

func (r *Run) check(name string, err error) {
	g := Gate{Name: name, OK: err == nil}
	if err != nil {
		g.Error = err.Error()
	}
	r.res.Gates = append(r.res.Gates, g)
}

func (r *Run) note(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// runtimeLayers reports allocator and GC activity over a traced phase of n ops.
func (r *Run) runtimeLayers(before, after runtimeCounters, n int) {
	if n > 0 {
		r.layer("runtime.alloc_bytes_per_op", float64(after.allocBytes-before.allocBytes)/float64(n))
	}
	r.layer("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
	r.layer("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

// overhead reports the traced-versus-untraced difference of the headline
// op's median latency, both measured in the same traced pass.
func (r *Run) overhead(traced, untraced *Samples) {
	if traced.N() == 0 || untraced.N() == 0 {
		return
	}
	t, u := traced.Quantile(0.5), untraced.Quantile(0.5)
	r.layer("trace.overhead_pct", 100*(t-u)/u)
	r.note("tracing overhead: traced p50 %.4f ms (n=%d) vs untraced p50 %.4f ms (n=%d)", t, traced.N(), u, untraced.N())
}

// workloads maps each workload name to the reason it exists and its runner.
var workloads = map[string]struct {
	why string
	run func(ctx context.Context, r *Run) error
}{
	"serve-read": {
		why: "open loop at a fixed rate (2 clients), search-dominated mix with a trickle of ingest and coma-schema match, then a closed-loop search capacity phase",
		run: func(ctx context.Context, r *Run) error { return runServe(ctx, r, r.cfg.Serve) },
	},
	"serve-write": {
		why: "open loop at a fixed rate (2 clients), ingest-dominated mix with WAL fsync=always and short snapshot interval, closed-loop ingest capacity, then timed cold restarts",
		run: func(ctx context.Context, r *Run) error { return runServe(ctx, r, r.cfg.Serve) },
	},
	"table5": {
		why: "closed loop, one thread: all 8 methods over a fixed fabricated pair set, repeated in passes, Recall@GT per run",
		run: runTable5,
	},
	"discover-rerank": {
		why: "closed loop, one client: LSH probe then planner.Rerank of an ensemble with the four tail matchers at k=10 over a fixed query set",
		run: runDiscover,
	},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "serve-read | serve-write | table5 | discover-rerank")
		seed     = flag.Int64("seed", 1, "workload seed (inputs are generated from it before any timing)")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for results, traces and scratch files")
	)
	flag.Parse()
	res, err := execute(*workload, *seed, *seconds, *trace == 1, "full", *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct() {
		os.Exit(1)
	}
}

// execute runs one workload, prints the report and the result line, and
// writes the result file.
func execute(workload string, seed int64, seconds int, traced bool, size, out string, w io.Writer) (*Result, error) {
	wl, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seed < 0 || seconds < 1 {
		return nil, fmt.Errorf("seed must be >= 0 and seconds >= 1")
	}
	cfg, err := resolve(workload, seconds, size)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(out, "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &Run{
		cfg: cfg, seed: seed + 1, seconds: seconds, traced: traced,
		conns: runtime.NumCPU(), work: work, layers: make(map[string]float64),
		res: &Result{Workload: workload, Trace: traced, Config: cfg},
	}
	if traced {
		r.tracer = newTracer()
	}
	r.res.Provenance = provenance(cfg, seed)
	if err := wl.run(context.Background(), r); err != nil {
		return nil, err
	}
	if traced {
		for _, name := range layerNames {
			r.res.Layers = append(r.res.Layers, Metric{Name: name, Unit: layerUnit(name), Value: r.layers[name]})
		}
	}
	if err := writeResult(out, seed, r); err != nil {
		return nil, err
	}
	report(w, r.res, wl.why)
	return r.res, nil
}

func provenance(cfg Config, seed int64) Provenance {
	rev := os.Getenv("PERFBENCH_GIT_REV") // set by run.sh
	if rev == "" {
		rev = "none"
	}
	return Provenance{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRevision: rev, SourceHash: sourceHash("."), Seed: seed, HeldOutSeed: heldOutSeed,
		ConfigHash: cfg.Hash(),
	}
}

// sourceHash digests every Go source and module file under root (build
// output and hidden directories skipped), identifying the code measured
// even where the checkout carries no git metadata.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func writeResult(out string, seed int64, r *Run) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.traced {
		trace = 1
		tdir := filepath.Join(out, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return err
		}
		if err := r.tracer.Write(filepath.Join(tdir, fmt.Sprintf("%s-s%d.jsonl", r.res.Workload, seed))); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(r.res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", r.res.Workload, seed, trace)), append(raw, '\n'), 0o644)
}

// report prints the human-readable report, then the one-line result.
func report(w io.Writer, res *Result, why string) {
	p := res.Provenance
	fmt.Fprintf(w, "workload %s (trace=%v): %s\n", res.Workload, res.Trace, why)
	fmt.Fprintf(w, "provenance cpus=%d gomaxprocs=%d go=%s rev=%s source=%.12s seed=%d held_out_seed=%d config=%.12s corpus=%.12s ops=%.12s\n",
		p.CPUs, p.GOMAXPROCS, p.GoVersion, p.GitRevision, p.SourceHash, p.Seed, p.HeldOutSeed, p.ConfigHash, p.CorpusHash, p.OpsHash)
	for _, g := range res.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED: " + g.Error
		}
		fmt.Fprintf(w, "gate %s: %s\n", g.Name, status)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, m := range res.Named {
		fmt.Fprintf(w, "metric %s = %.6g %s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range res.Gated {
		fmt.Fprintf(w, "end_to_end %s = %.6g %s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range res.Layers {
		fmt.Fprintf(w, "per_layer %s = %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	list := res.Gated
	if res.Trace {
		list = res.Layers
	}
	for _, m := range list {
		metrics[m.Name] = val{Value: finite(m.Value), Unit: m.Unit}
	}
	attempted := max(res.Attempted, 1)
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct(), attempted, res.Failed, metrics})
	fmt.Fprintln(w, string(line))
}

// finite caps +Inf (a failed op that set a quantile) for JSON output.
func finite(x float64) float64 {
	if math.IsInf(x, 1) || math.IsNaN(x) {
		return 1e9
	}
	return x
}

// compare prints the ratio of every end-to-end metric of two result files,
// refusing results that were not measured comparably.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <base.json> <new.json>")
	}
	var rs [2]Result
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := rs[0], rs[1]
	pa, pb := a.Provenance, b.Provenance
	switch {
	case a.Workload != b.Workload:
		return fmt.Errorf("refusing: workloads differ (%s vs %s)", a.Workload, b.Workload)
	case a.Trace != b.Trace:
		return fmt.Errorf("refusing: one result is traced, the other is not")
	case pa.CPUs != pb.CPUs:
		return fmt.Errorf("refusing: cpus differ (%d vs %d)", pa.CPUs, pb.CPUs)
	case pa.GOMAXPROCS != pb.GOMAXPROCS:
		return fmt.Errorf("refusing: GOMAXPROCS differs (%d vs %d)", pa.GOMAXPROCS, pb.GOMAXPROCS)
	case pa.ConfigHash != pb.ConfigHash:
		return fmt.Errorf("refusing: config hashes differ (%.12s vs %.12s)", pa.ConfigHash, pb.ConfigHash)
	}
	if pa.CorpusHash != pb.CorpusHash || pa.OpsHash != pb.OpsHash {
		fmt.Printf("note: inputs differ (seeds %d vs %d)\n", pa.Seed, pb.Seed)
	}
	byName := func(r Result) map[string]Metric {
		out := make(map[string]Metric)
		for _, list := range [][]Metric{r.Named, r.Gated, r.Layers} {
			for _, m := range list {
				out[m.Name] = m
			}
		}
		return out
	}
	base, next := byName(a), byName(b)
	var names []string
	for n := range next {
		if _, ok := base[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := base[n], next[n]
		ratio := math.NaN()
		if x.Value != 0 {
			ratio = y.Value / x.Value
		}
		fmt.Printf("%-40s %14.6g %14.6g %-6s ×%.3f\n", n, x.Value, y.Value, y.Unit, ratio)
	}
	return nil
}

// resolve returns the configuration for a workload at the given scale:
// "full" for measurement, "tiny" for the self-test.
func resolve(workload string, seconds int, size string) (Config, error) {
	c := Config{Workload: workload, Seconds: seconds, SetupReps: 5}
	tiny := size == "tiny"
	if size != "full" && !tiny {
		return c, fmt.Errorf("unknown size %q", size)
	}
	switch workload {
	case "serve-read":
		c.Serve = &ServeConfig{
			Tables: 300, Rows: 60, ChurnTables: 48, ChurnRows: 30,
			Rate: 240, Ingest: 0.08, Search: 0.87, Match: 0.05, K: 10,
			OpenShare: 0.7, CapShare: 0.2, Segments: 5, TailQ: 0.75, SealAfter: 64, Probes: 16,
		}
		if tiny {
			c.Serve.Tables, c.Serve.Rows, c.Serve.ChurnTables, c.Serve.Rate, c.Serve.Probes, c.Serve.Segments = 24, 20, 6, 80, 4, 2
		}
	case "serve-write":
		c.Serve = &ServeConfig{
			Tables: 150, Rows: 40, ChurnTables: 64, ChurnRows: 30,
			Rate: 100, Ingest: 0.7, Search: 0.25, Match: 0.05, K: 10,
			OpenShare: 0.75, CapShare: 0.2, Segments: 7, TailQ: 0.75, WAL: true, SnapshotEveryMS: 2000,
			SealAfter: 16, TailUpserts: 64, RestartReps: 3, Probes: 16,
		}
		if tiny {
			c.Serve.Tables, c.Serve.Rows, c.Serve.ChurnTables, c.Serve.Rate, c.Serve.Segments = 24, 20, 8, 80, 2
			c.Serve.SnapshotEveryMS, c.Serve.TailUpserts, c.Serve.RestartReps, c.Serve.Probes = 300, 8, 2, 4
		}
	case "table5":
		c.Table5 = &Table5Config{Rows: 40}
		if tiny {
			c.Table5.Rows = 12
		}
	case "discover-rerank":
		c.Discover = &DiscoverConfig{Families: 12, Related: 14, Junk: 40, Cols: 4, Rows: 12, Pool: 14, K: 10, Checked: 4}
		if tiny {
			c.Discover.Families, c.Discover.Junk, c.Discover.Checked = 2, 10, 2
		}
	}
	return c, nil
}
