package main

// The table5 workload: the paper's Table V loop. All eight methods run over a
// fixed set of fabricated pairs covering the four relatedness scenarios,
// verbatim and noisy, one run at a time on one thread, with Recall@GT
// computed for every run. The suite repeats in passes until the run's time
// is up; each (method, pair) cell reports its median runtime over passes.

import (
	"context"
	"fmt"
	"time"

	"valentine/internal/core"
	"valentine/internal/datagen"
	"valentine/internal/engine"
	"valentine/internal/experiment"
	"valentine/internal/fabrication"
	"valentine/internal/metrics"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// Table5Config sizes the table5 workload.
type Table5Config struct {
	Rows int `json:"rows"`
}

func table5Methods() []string { return experiment.MethodNames() }

// quickParams is the parameter set every benchmark run gives a method: the
// first entry of its quick grid (nil where the method has none).
func quickParams(name string) core.Params {
	if g := experiment.QuickGrids()[name]; len(g) > 0 {
		return g[0]
	}
	return nil
}

// table5Recipes covers each relatedness scenario verbatim and with noise.
var table5Recipes = []fabrication.Recipe{
	{Kind: core.ScenarioUnionable, RowOverlap: 0.5},
	{Kind: core.ScenarioUnionable, RowOverlap: 0.5, Variant: fabrication.Variant{NoisySchema: true, NoisyInstances: true}},
	{Kind: core.ScenarioViewUnionable, ColOverlap: 0.5},
	{Kind: core.ScenarioViewUnionable, ColOverlap: 0.5, Variant: fabrication.Variant{NoisySchema: true, NoisyInstances: true}},
	{Kind: core.ScenarioJoinable, ColOverlap: 0.5, RowOverlap: 0.5},
	{Kind: core.ScenarioJoinable, ColOverlap: 0.5, RowOverlap: 0.5, Variant: fabrication.Variant{NoisySchema: true}},
	{Kind: core.ScenarioSemJoinable, ColOverlap: 0.5, RowOverlap: 0.5},
	{Kind: core.ScenarioSemJoinable, ColOverlap: 0.5, RowOverlap: 0.5, Variant: fabrication.Variant{NoisySchema: true}},
}

type table5Suite struct {
	pairs    []core.TablePair
	names    []string // registry method names, parallel to matchers
	matchers []core.Matcher
}

// setupTable5 fabricates the pairs, builds the matchers and runs every
// method once on the first pair as warm-up.
func setupTable5(ctx context.Context, cfg *Table5Config, seed int64) (*table5Suite, error) {
	s := &table5Suite{}
	sources := datagen.SourceNames()
	for i, rec := range table5Recipes {
		src, err := datagen.Source(sources[i%len(sources)], datagen.Options{Rows: cfg.Rows, Seed: seed})
		if err != nil {
			return nil, err
		}
		// The fabrication seed is fixed, so every run splits and perturbs the
		// same columns: the suite's shape is constant and only the source
		// values follow the run's seed.
		pair, err := fabrication.New(int64(7919*(i+1))).Fabricate(src, rec)
		if err != nil {
			return nil, fmt.Errorf("fabricating %s: %w", rec.Kind, err)
		}
		pair.Name = fmt.Sprintf("p%d-%s-%s", i, rec.Kind, rec.Variant.Label())
		s.pairs = append(s.pairs, pair)
	}
	reg := experiment.NewRegistry()
	s.names = table5Methods()
	for _, name := range s.names {
		m, err := reg.New(name, quickParams(name))
		if err != nil {
			return nil, err
		}
		s.matchers = append(s.matchers, m)
	}
	sp, tp := profile.New(s.pairs[0].Source), profile.New(s.pairs[0].Target)
	sp.Warm()
	tp.Warm()
	for _, m := range s.matchers {
		if _, err := core.MatchProfilesWithContext(ctx, m, sp, tp); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", m.Name(), err)
		}
	}
	return s, nil
}

func runTable5(ctx context.Context, r *Run) error {
	cfg := r.cfg.Table5
	// Table V's single-threaded discipline: each run scores sequentially.
	ctx = engine.WithOptions(ctx, engine.Options{Parallelism: 1})
	var suite *table5Suite
	var setups []float64
	reps := r.cfg.SetupReps
	if r.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := setupTable5(ctx, cfg, r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		suite = s
	}
	r.setup(setups)
	r.hashes(hashTables(pairTables(suite.pairs)), "table5-fixed-suite")

	nm, np := len(suite.matchers), len(suite.pairs)
	cells := make([][]float64, nm*np) // per (method, pair): runtime of each pass, ms
	recall := make([]float64, nm*np)
	var walls, tracedWalls, untracedWalls []float64
	minPasses := 3
	if r.traced {
		minPasses = 2
	}
	heap := startHeapSampler()
	var peak float64
	before := readRuntime()
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < time.Duration(r.seconds)*time.Second; pass++ {
		tr := r.tracer
		if pass%2 == 0 {
			tr = nil // even passes run untraced: the tracing-overhead baseline
		}
		p0 := time.Now()
		for pi, pair := range suite.pairs {
			tr.Begin()
			var sp, tp *profile.TableProfile
			tr.Span("profile.pair", func() {
				sp, tp = profile.New(pair.Source), profile.New(pair.Target)
				sp.Warm()
				tp.Warm()
			})
			for mi, m := range suite.matchers {
				name := suite.names[mi]
				tr.Start("matchers." + name)
				t0 := time.Now()
				matches, err := core.MatchProfilesWithContext(ctx, m, sp, tp)
				d := time.Since(t0)
				tr.End()
				r.count(1, 0)
				if err != nil {
					r.count(0, 1)
					r.check("every matcher run succeeds", fmt.Errorf("%s on %s: %w", name, pair.Name, err))
					return nil
				}
				rec, err := metrics.RecallAtGroundTruth(matches, pair.Truth)
				if err != nil {
					r.check("recall computed for every run", fmt.Errorf("%s on %s: %w", name, pair.Name, err))
					return nil
				}
				c := mi*np + pi
				if pass > 0 && rec != recall[c] {
					r.check("recall identical across passes", fmt.Errorf("%s on %s: %v then %v", name, pair.Name, recall[c], rec))
					return nil
				}
				recall[c] = rec
				cells[c] = append(cells[c], float64(d)/float64(time.Millisecond))
			}
		}
		wall := time.Since(p0).Seconds()
		walls = append(walls, wall)
		if pass+1 == heapPasses {
			peak = heap.Stop()
		}
		if tr != nil {
			tracedWalls = append(tracedWalls, wall)
		} else {
			untracedWalls = append(untracedWalls, wall)
		}
	}
	after := readRuntime()
	if len(walls) < heapPasses {
		peak = heap.Stop()
	}
	r.check("every matcher run succeeds", nil)
	r.check("recall recorded for every (method, pair) and identical across passes", nil)

	cellMed := &Samples{}
	methodMeans := make([]float64, nm)
	recallSum := 0.0
	for mi, name := range suite.names {
		sum, rsum := 0.0, 0.0
		for pi := 0; pi < np; pi++ {
			med := median(cells[mi*np+pi])
			cellMed.v = append(cellMed.v, med)
			sum += med
			rsum += recall[mi*np+pi]
		}
		methodMeans[mi] = sum / float64(np)
		recallSum += rsum
		r.named("table5."+name+".pair_ms", "ms", methodMeans[mi], np)
		r.named("table5."+name+".recall", "ratio", rsum/float64(np), np)
	}
	suiteWall := median(walls)
	r.named("table5_geomean_ms", "ms", geomean(methodMeans), nm)
	r.named("table5_wall_s", "s", suiteWall, len(walls))
	r.named("recall_mean", "ratio", recallSum/float64(nm*np), nm*np)
	if r.traced {
		stats := r.tracer.Stats()
		for mi, name := range suite.names {
			st := stats["matchers."+name]
			if st.Count > 0 {
				r.layer("matchers."+name+".pair_ms", float64(st.Total)/float64(st.Count)/float64(time.Millisecond))
			}
			rsum := 0.0
			for pi := 0; pi < np; pi++ {
				rsum += recall[mi*np+pi]
			}
			r.layer("matchers."+name+".recall", rsum/float64(np))
		}
		r.layer("profile.pair_us", stats["profile.pair"].MeanSelfUS())
		r.runtimeLayers(before, after, nm*np*len(walls))
		r.overhead(&Samples{v: tracedWalls}, &Samples{v: untracedWalls})
		return nil
	}
	r.gated("setup_s", r.setupS, len(setups))
	r.gated("peak_heap_mb", peak, 0)
	r.gated("latency_ms", geomean(methodMeans), nm)
	r.gated("tail_ms", cellMed.Quantile(0.9), cellMed.N())
	r.gated("mean_ms", cellMed.Mean(), cellMed.N())
	r.gated("throughput_per_s", float64(nm*np)/suiteWall, len(walls))
	r.note("%d passes of %d methods × %d pairs; cell latency is the median over passes", len(walls), nm, np)
	return nil
}

// heapPasses is how many passes the heap peak covers: a fixed amount of work,
// so a run that fits more passes in its time does not read a different peak.
const heapPasses = 3

func pairTables(pairs []core.TablePair) []*table.Table {
	var out []*table.Table
	for _, p := range pairs {
		out = append(out, p.Source, p.Target)
	}
	return out
}
