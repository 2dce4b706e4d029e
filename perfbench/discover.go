package main

// The discover-rerank workload follows the `valentine discover` path: each
// query of a fixed set LSH-probes a catalog index, then planner.Rerank
// re-ranks the nominated tables with an ensemble of coma-instance and the
// four tail matchers, from cold profiles. The catalog is fabricated in
// families: per query, related tables share its column names and value
// vocabulary (one of them is its designated partner), while junk tables
// share values in a single column — enough to be nominated by the probe —
// under names of their own, so the planner's bounds can prune them.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/matchers/ensemble"
	"valentine/internal/planner"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// DiscoverConfig sizes the discover-rerank workload.
type DiscoverConfig struct {
	Families int `json:"families"` // one query per family
	Related  int `json:"related"`  // related tables per family (partner included)
	Junk     int `json:"junk"`     // junk tables per family
	Cols     int `json:"cols"`
	Rows     int `json:"rows"`
	Pool     int `json:"pool"` // distinct values per family column
	K        int `json:"k"`
	Checked  int `json:"checked"` // queries checked against RerankFull
}

// discoverTailQ is the quantile over query latencies that tail_ms reports:
// with 12 queries, p75 has three queries beyond it, where p90 would be the
// slowest query alone.
const discoverTailQ = 0.75

// ensembleMethods are the ensemble's members: the serving default plus the
// four expensive tail matchers.
var ensembleMethods = []string{
	experiment.MethodComaInstance, experiment.MethodSimFlood, experiment.MethodCupid,
	experiment.MethodSemProp, experiment.MethodEmbDI,
}

var greek = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}

type discoverInputs struct {
	queries  []*table.Table
	partners []string
	catalog  map[string]*table.Table
	ix       *discovery.Index
	ens      core.Matcher
	hash     string
}

func fabricateCatalog(cfg *DiscoverConfig, seed int64) (queries []*table.Table, partners []string, catalog []*table.Table) {
	rng := rand.New(rand.NewSource(seed))
	for f := 0; f < cfg.Families; f++ {
		family := func(name string, shift int) *table.Table {
			t := table.New(name)
			for c := 0; c < cfg.Cols; c++ {
				vals := make([]string, cfg.Rows)
				for i := range vals {
					vals[i] = fmt.Sprintf("f%dc%d-%03d", f, c, shift+rng.Intn(cfg.Pool))
				}
				t.AddColumn(greek[(f+c)%len(greek)]+" "+greek[c%len(greek)], vals)
			}
			return t
		}
		queries = append(queries, family(fmt.Sprintf("query%02d", f), 0))
		partners = append(partners, fmt.Sprintf("f%02d_related00", f))
		for i := 0; i < cfg.Related; i++ {
			// Later related tables drift slightly from the query's values, so
			// the top-k has a ranking to get right; the drift stays small
			// enough that the probe nominates every related table, and the
			// top-k cutoff they set lets the bounds prune the junk.
			catalog = append(catalog, family(fmt.Sprintf("f%02d_related%02d", f, i), i/5))
		}
		for j := 0; j < cfg.Junk; j++ {
			id := f*1000 + j
			t := table.New(fmt.Sprintf("f%02d_junk%03d", f, j))
			for c := 0; c < cfg.Cols; c++ {
				vals := make([]string, cfg.Rows)
				for i := range vals {
					if c == 0 {
						vals[i] = fmt.Sprintf("f%dc%d-%03d", f, j%cfg.Cols, rng.Intn(cfg.Pool))
					} else {
						vals[i] = fmt.Sprintf("j%d-%d-%d", id, c, rng.Intn(cfg.Pool))
					}
				}
				t.AddColumn(fmt.Sprintf("j%04d fld%d", id, c), vals)
			}
			catalog = append(catalog, t)
		}
	}
	return queries, partners, catalog
}

func newEnsemble() (core.Matcher, error) {
	params := make(map[string]core.Params, len(ensembleMethods))
	for _, name := range ensembleMethods {
		params[name] = quickParams(name)
	}
	return ensemble.FromRegistry(experiment.NewRegistry(), params, ensembleMethods, nil)
}

// setupDiscover fabricates the catalog, indexes it and warms the query path.
func setupDiscover(ctx context.Context, cfg *DiscoverConfig, seed int64) (*discoverInputs, error) {
	queries, partners, catalog := fabricateCatalog(cfg, seed)
	in := &discoverInputs{queries: queries, partners: partners, catalog: make(map[string]*table.Table, len(catalog))}
	in.ix = discovery.New(discovery.Options{})
	for _, t := range catalog {
		in.catalog[t.Name] = t
		if err := in.ix.Upsert(t); err != nil {
			return nil, err
		}
	}
	in.hash = hashTables(append(append([]*table.Table{}, queries...), catalog...))
	ens, err := newEnsemble()
	if err != nil {
		return nil, err
	}
	in.ens = ens
	// Warm-up: one probe, and the ensemble over the first two candidates.
	store := profile.NewStore()
	store.Warm(queries[0])
	cands, err := in.candidates(ctx, store, queries[0])
	if err != nil {
		return nil, err
	}
	if _, err := planner.Rerank(ctx, ens, store.Of(queries[0]), cands[:min(2, len(cands))], "join", cfg.K); err != nil {
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return in, nil
}

// candidates probes the index for the query and returns the nominated
// tables with cold profiles from store.
func (in *discoverInputs) candidates(ctx context.Context, store *profile.Store, q *table.Table) ([]planner.Candidate, error) {
	res, err := in.ix.SearchProfiledContext(ctx, store.Of(q), discovery.ModeJoin, 0)
	if err != nil {
		return nil, err
	}
	cands := make([]planner.Candidate, len(res))
	for i, x := range res {
		cands[i] = planner.Candidate{Name: x.Table, Profile: store.Of(in.catalog[x.Table])}
	}
	return cands, nil
}

// query runs one discover query: profile the query, probe, re-rank.
func (in *discoverInputs) query(ctx context.Context, tr *Tracer, qi, k int) (*planner.RerankResult, engine.Snapshot, error) {
	tr.Begin()
	tr.Start("op.query")
	defer tr.End()
	q := in.queries[qi]
	store := profile.NewStore()
	tr.Span("profile.query", func() { store.Warm(q) })
	var cands []planner.Candidate
	var err error
	tr.Span("discovery.probe", func() { cands, err = in.candidates(ctx, store, q) })
	if err != nil {
		return nil, engine.Snapshot{}, err
	}
	sctx, stats := engine.WithStats(ctx)
	var rr *planner.RerankResult
	tr.Span("planner.rerank", func() { rr, err = planner.Rerank(sctx, in.ens, store.Of(q), cands, "join", k) })
	if err == nil && len(rr.Errs) > 0 {
		err = fmt.Errorf("%d candidates failed to score", len(rr.Errs))
	}
	return rr, stats.Snapshot(), err
}

func runDiscover(ctx context.Context, r *Run) error {
	cfg := r.cfg.Discover
	var in *discoverInputs
	var setups []float64
	reps := r.cfg.SetupReps
	if r.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		x, err := setupDiscover(ctx, cfg, r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		in = x
	}
	r.setup(setups)
	r.hashes(in.hash, "discover-fixed-queries")

	nq := len(in.queries)
	per := make([][]float64, nq)         // per query: latency of each pass, ms
	last := make([][]planner.Ranked, nq) // per query: the cascade's top-k in the latest pass
	var walls []float64
	traced, untraced := &Samples{}, &Samples{}
	hits, runs := 0, 0
	var bounded, pruned, refined int64
	var boundNs, refineNs int64
	heap := startHeapSampler()
	var peak float64
	before := readRuntime()
	start := time.Now()
	for pass := 0; pass < heapPasses || time.Since(start) < time.Duration(r.seconds)*time.Second; pass++ {
		p0 := time.Now()
		for qi := range in.queries {
			tr := r.tracer
			if (pass+qi)%2 == 1 {
				tr = nil // each query alternates untraced passes: the tracing-overhead baseline
			}
			t0 := time.Now()
			rr, sn, err := in.query(ctx, tr, qi, cfg.K)
			d := time.Since(t0)
			r.count(1, 0)
			if err != nil {
				r.count(0, 1)
				r.check("every query succeeds", fmt.Errorf("%s: %w", in.queries[qi].Name, err))
				return nil
			}
			per[qi] = append(per[qi], float64(d)/float64(time.Millisecond))
			if tr != nil {
				traced.Add(d)
			} else {
				untraced.Add(d)
			}
			runs++
			last[qi] = rr.Ranked
			for _, x := range rr.Ranked {
				if x.Name == in.partners[qi] {
					hits++
				}
			}
			for _, ms := range sn.Matchers {
				bounded += ms.Bounded
				pruned += ms.Pruned
				refined += ms.Refined
			}
			boundNs += int64(sn.Bound)
			refineNs += int64(sn.Score)
		}
		walls = append(walls, time.Since(p0).Seconds())
		if pass+1 == heapPasses {
			peak = heap.Stop()
		}
	}
	after := readRuntime()
	r.check("every query succeeds", nil)
	r.check("cascade top-k equals planner.RerankFull on the checked queries", checkRerank(ctx, in, cfg, last))
	if pruned == 0 {
		r.note("the planner pruned no candidate: the workload no longer exercises bound/prune")
	}

	med := &Samples{}
	for _, xs := range per {
		med.v = append(med.v, median(xs))
	}
	r.named("rerank_p50_ms", "ms", med.Quantile(0.5), med.N())
	r.named("rerank_p75_ms", "ms", med.Quantile(discoverTailQ), med.N())
	r.named("rerank_mean_ms", "ms", med.Mean(), med.N())
	r.named("discover_recall", "ratio", float64(hits)/float64(runs), runs)
	if r.traced {
		stats := r.tracer.Stats()
		r.layer("discovery.probe_us", stats["discovery.probe"].MeanSelfUS())
		r.layer("profile.query_us", stats["profile.query"].MeanSelfUS())
		r.layer("planner.rerank_us", stats["planner.rerank"].MeanSelfUS())
		r.layer("planner.bound_us", float64(boundNs)/float64(runs)/1e3)
		r.layer("planner.refine_us", float64(refineNs)/float64(runs)/1e3)
		r.layer("planner.refined_per_query", float64(refined)/float64(runs))
		r.runtimeLayers(before, after, runs)
		r.overhead(traced, untraced)
		return memberPruneRates(ctx, r, in, cfg)
	}
	r.gated("setup_s", r.setupS, len(setups))
	r.gated("peak_heap_mb", peak, 0)
	r.gated("latency_ms", med.Quantile(0.5), med.N())
	r.gated("tail_ms", med.Quantile(discoverTailQ), med.N())
	r.gated("mean_ms", med.Mean(), med.N())
	r.gated("throughput_per_s", float64(nq)/median(walls), len(walls))
	r.note("%d passes over %d queries; query latency is the median over passes; %d of %d bounded candidates pruned",
		len(walls), nq, pruned, bounded)
	return nil
}

// checkRerank compares the cascade's top-k from the timed passes with the
// full-fidelity reference on the first Checked queries, outside any timing.
func checkRerank(ctx context.Context, in *discoverInputs, cfg *DiscoverConfig, cascade [][]planner.Ranked) error {
	for qi := 0; qi < cfg.Checked && qi < len(in.queries); qi++ {
		q := in.queries[qi]
		store := profile.NewStore()
		store.Warm(q)
		cands, err := in.candidates(ctx, store, q)
		if err != nil {
			return err
		}
		full, err := planner.RerankFull(ctx, in.ens, store.Of(q), cands, "join", cfg.K)
		if err != nil {
			return err
		}
		if len(cascade[qi]) != len(full.Ranked) {
			return fmt.Errorf("%s: cascade returned %d, full %d", q.Name, len(cascade[qi]), len(full.Ranked))
		}
		for i := range full.Ranked {
			if cascade[qi][i] != full.Ranked[i] {
				return fmt.Errorf("%s rank %d: cascade %+v, full %+v", q.Name, i, cascade[qi][i], full.Ranked[i])
			}
		}
	}
	return nil
}

// memberPruneRates runs the cascade with each ensemble member alone on the
// checked queries and reports each member's share of bounded candidates
// pruned.
func memberPruneRates(ctx context.Context, r *Run, in *discoverInputs, cfg *DiscoverConfig) error {
	reg := experiment.NewRegistry()
	for _, name := range ensembleMethods {
		m, err := reg.New(name, quickParams(name))
		if err != nil {
			return err
		}
		var bounded, pruned int64
		for qi := 0; qi < cfg.Checked && qi < len(in.queries); qi++ {
			q := in.queries[qi]
			store := profile.NewStore()
			store.Warm(q)
			cands, err := in.candidates(ctx, store, q)
			if err != nil {
				return err
			}
			sctx, stats := engine.WithStats(ctx)
			if _, err := planner.Rerank(sctx, m, store.Of(q), cands, "join", cfg.K); err != nil {
				return err
			}
			for _, ms := range stats.Snapshot().Matchers {
				bounded += ms.Bounded
				pruned += ms.Pruned
			}
		}
		if bounded > 0 {
			r.layer("planner."+name+".prune_rate", float64(pruned)/float64(bounded))
		}
	}
	return nil
}

// hashTables digests table names, column names and values in order.
func hashTables(ts []*table.Table) string {
	h := sha256.New()
	for _, t := range ts {
		field(h, t.Name)
		for i := range t.Columns {
			field(h, t.Columns[i].Name)
			for _, v := range t.Columns[i].Values {
				field(h, v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func field(h hash.Hash, s string) {
	fmt.Fprintf(h, "%d:", len(s))
	h.Write([]byte(s))
}
