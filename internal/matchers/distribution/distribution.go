// Package distribution reimplements the Distribution-based matcher (Zhang,
// Hadjieleftheriou, Ooi et al., SIGMOD 2011): attribute relationships are
// discovered by comparing value distributions with the Earth Mover's
// Distance, in two phases — a cheap quantile-histogram pass that builds
// candidate clusters (threshold θ₁) and a refinement pass on the full rank
// distributions (threshold θ₂) — followed by a cluster-consolidation
// integer program (the original used CPLEX/PuLP; internal/lp here).
//
// Adaptation for Valentine's ranked-output protocol: every cross-table
// column pair is scored 1/(1+EMD); pairs surviving both phases rank above
// the rest, and pairs selected by the consolidation ILP receive the top
// scores. Values of string columns enter the distribution through their
// global rank in the sorted union of all observed values, as in the
// original's treatment of categorical data.
package distribution

import (
	"context"
	"sort"
	"strings"
	"time"

	"valentine/internal/core"
	"valentine/internal/emd"
	"valentine/internal/engine"
	"valentine/internal/lp"
	"valentine/internal/profile"
)

// Matcher is a configured distribution-based instance.
type Matcher struct {
	Theta1    float64 // phase-1 quantile-EMD threshold (Table II: 0.1–0.5)
	Theta2    float64 // phase-2 refined-EMD threshold (Table II: 0.1–0.5)
	Quantiles int     // phase-1 histogram resolution (default 20)
	MaxSample int     // phase-2 rank-sample cap per column (default 300)
}

// New builds the matcher from params: "theta1" (default 0.15), "theta2"
// (default 0.15), "quantiles" (default 20), "max_sample" (default 300).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		Theta1:    p.Float("theta1", 0.15),
		Theta2:    p.Float("theta2", 0.15),
		Quantiles: p.Int("quantiles", 20),
		MaxSample: p.Int("max_sample", 300),
	}, nil
}

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "distribution-based" }

// pairKey indexes a cross-table column pair by column indices.
type pairKey struct{ i, j int }

type columnDist struct {
	table  string
	name   string
	source bool      // true when the column belongs to the source table
	ranks  []float64 // normalized ranks of this column's values, sorted
	quant  []float64 // quantile sketch of ranks
}

// MatchProfilesContext implements core.Matcher, and is the matcher whose
// phases map onto the engine pipeline most literally: distribution
// construction (from each profile's cached parsed distinct values) is the
// generate stage, the phase-1 quantile-sketch EMD is the prune stage (both
// EMD sweeps fan out on the pool), the phase-2 refinement over full rank
// distributions is the score stage, and consolidation + sort are the rank
// stage.
func (m *Matcher) MatchProfilesContext(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()
	stats := engine.StatsFrom(ctx)
	workers := engine.OptionsFrom(ctx).Workers()
	var cols []columnDist
	stats.Timed(engine.StageGenerate, func() {
		cols = m.buildDistributions(sp, tp)
	})

	// Phase 1: quantile-EMD between every cross-table pair; candidate pairs
	// have EMD ≤ θ₁. One pool unit per source column.
	var srcIdx, tgtIdx []int
	for i, c := range cols {
		if c.source {
			srcIdx = append(srcIdx, i)
		} else {
			tgtIdx = append(tgtIdx, i)
		}
	}
	stats.AddCandidates(int64(len(srcIdx)) * int64(len(tgtIdx)))
	emd1 := make(map[pairKey]float64, len(srcIdx)*len(tgtIdx))
	rows1 := make([][]float64, len(srcIdx))
	start := time.Now()
	err := engine.Map(ctx, workers, len(srcIdx), func(si int) error {
		row := make([]float64, len(tgtIdx))
		for tj, j := range tgtIdx {
			row[tj] = emd.Samples1D(cols[srcIdx[si]].quant, cols[j].quant)
		}
		rows1[si] = row
		return nil
	})
	stats.Observe(engine.StagePrune, time.Since(start))
	if err != nil {
		return nil, err
	}
	// Candidate pairs surviving θ₁, in the row-major order the sequential
	// loop visited them.
	var cand []pairKey
	for si, i := range srcIdx {
		for tj, j := range tgtIdx {
			emd1[pairKey{i, j}] = rows1[si][tj]
			if rows1[si][tj] <= m.Theta1 {
				cand = append(cand, pairKey{i, j})
			}
		}
	}
	stats.AddPruned(int64(len(srcIdx)*len(tgtIdx) - len(cand)))

	// Phase 2: refine candidates on the full rank distributions, one pool
	// unit per surviving pair (the quadratic EMD is the expensive part).
	refined := make([]float64, len(cand))
	start = time.Now()
	err = engine.Map(ctx, workers, len(cand), func(c int) error {
		refined[c] = emd.Samples1D(cols[cand[c].i].ranks, cols[cand[c].j].ranks)
		return nil
	})
	stats.Observe(engine.StageScore, time.Since(start))
	if err != nil {
		return nil, err
	}
	stats.AddScored(int64(len(cand)))
	emd2 := make(map[pairKey]float64, len(cand))
	for c, k := range cand {
		emd2[k] = refined[c]
	}

	// Consolidation ILP per connected component of the surviving graph:
	// pick a 1-1 assignment maximizing total similarity; its pairs receive
	// the top scores.
	var out []core.Match
	stats.Timed(engine.StageRank, func() {
		selected := m.consolidate(cols, srcIdx, tgtIdx, emd2)
		for _, i := range srcIdx {
			for _, j := range tgtIdx {
				k := pairKey{i, j}
				d := emd1[k]
				score := 0.5 / (1 + d) // not clustered: bottom band
				if d2, ok := emd2[k]; ok && d2 <= m.Theta2 {
					score = 0.8 / (1 + d2) // co-clustered: middle band
					if selected[[2]string{cols[i].name, cols[j].name}] {
						score = 1 / (1 + d2) // ILP-selected: top band
					}
				}
				out = append(out, core.Match{
					SourceTable:  source.Name,
					SourceColumn: cols[i].name,
					TargetTable:  target.Name,
					TargetColumn: cols[j].name,
					Score:        score,
				})
			}
		}
		core.SortMatches(out)
	})
	return out, nil
}

// buildDistributions computes the global value ranking over both tables and
// each column's normalized rank distribution plus quantile sketch.
func (m *Matcher) buildDistributions(sp, tp *profile.TableProfile) []columnDist {
	// Global ordered universe: numerics by value first, then strings
	// lexicographically (case-folded). The per-value derived forms come from
	// the profiles' caches.
	type valueKey struct {
		isNum bool
		num   float64
		str   string
	}
	universe := make(map[string]valueKey)
	collect := func(tprof *profile.TableProfile) {
		for _, p := range tprof.Columns() {
			for _, pv := range p.ParsedDistinct() {
				if _, seen := universe[pv.Value]; seen {
					continue
				}
				if pv.IsNum {
					universe[pv.Value] = valueKey{isNum: true, num: pv.Num}
				} else {
					universe[pv.Value] = valueKey{str: pv.Lower}
				}
			}
		}
	}
	collect(sp)
	collect(tp)
	keys := make([]string, 0, len(universe))
	for v := range universe {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := universe[keys[a]], universe[keys[b]]
		if ka.isNum != kb.isNum {
			return ka.isNum
		}
		if ka.isNum {
			if ka.num != kb.num {
				return ka.num < kb.num
			}
			return keys[a] < keys[b]
		}
		if ka.str != kb.str {
			return ka.str < kb.str
		}
		return keys[a] < keys[b]
	})
	rank := make(map[string]float64, len(keys))
	denom := float64(len(keys) - 1)
	if denom <= 0 {
		denom = 1
	}
	for i, v := range keys {
		rank[v] = float64(i) / denom
	}

	quantiles := m.Quantiles
	if quantiles < 2 {
		quantiles = 20
	}
	maxSample := m.MaxSample
	if maxSample < 10 {
		maxSample = 300
	}
	var cols []columnDist
	add := func(tprof *profile.TableProfile, isSource bool) {
		t := tprof.Table()
		for _, c := range t.Columns {
			ranks := make([]float64, 0, len(c.Values))
			for _, v := range c.Values {
				v = strings.TrimSpace(v)
				if v == "" {
					continue
				}
				ranks = append(ranks, rank[v])
			}
			sort.Float64s(ranks)
			cols = append(cols, columnDist{
				table:  t.Name,
				name:   c.Name,
				source: isSource,
				ranks:  downsample(ranks, maxSample),
				quant:  quantileSketch(ranks, quantiles),
			})
		}
	}
	add(sp, true)
	add(tp, false)
	return cols
}

// consolidate solves, per connected component of the phase-2 graph, the 0/1
// assignment program maximizing total similarity with each column matched
// at most once, and returns the selected (source,target) name pairs.
func (m *Matcher) consolidate(cols []columnDist, srcIdx, tgtIdx []int, emd2 map[pairKey]float64) map[[2]string]bool {
	// Surviving edges.
	var edges []pairKey
	for k, d := range emd2 {
		if d <= m.Theta2 {
			edges = append(edges, k)
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	// Union-find over column indices.
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		if p, ok := parent[x]; ok && p != x {
			parent[x] = find(p)
			return parent[x]
		}
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range edges {
		union(e.i, e.j)
	}
	byComp := make(map[int][]pairKey)
	for _, e := range edges {
		byComp[find(e.i)] = append(byComp[find(e.i)], e)
	}
	roots := make([]int, 0, len(byComp))
	for r := range byComp {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	selected := make(map[[2]string]bool)
	for _, root := range roots {
		comp := byComp[root]
		if len(comp) == 1 {
			e := comp[0]
			selected[[2]string{cols[e.i].name, cols[e.j].name}] = true
			continue
		}
		if len(comp) > 48 {
			// Degenerate component: fall back to greedy by similarity.
			sort.Slice(comp, func(a, b int) bool { return emd2[comp[a]] < emd2[comp[b]] })
			usedI, usedJ := map[int]bool{}, map[int]bool{}
			for _, e := range comp {
				if usedI[e.i] || usedJ[e.j] {
					continue
				}
				usedI[e.i], usedJ[e.j] = true, true
				selected[[2]string{cols[e.i].name, cols[e.j].name}] = true
			}
			continue
		}
		// MaxNodes bounds the worst case on dense components; the solver
		// then returns its best incumbent assignment (anytime behaviour).
		prob := lp.Problem{NumVars: len(comp), Objective: make([]float64, len(comp)), MaxNodes: 20_000}
		perI := make(map[int][]int)
		perJ := make(map[int][]int)
		for v, e := range comp {
			prob.Objective[v] = 1 / (1 + emd2[e])
			perI[e.i] = append(perI[e.i], v)
			perJ[e.j] = append(perJ[e.j], v)
		}
		for _, vars := range perI {
			coeffs := make(map[int]float64, len(vars))
			for _, v := range vars {
				coeffs[v] = 1
			}
			prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: coeffs, Op: lp.LE, RHS: 1})
		}
		for _, vars := range perJ {
			coeffs := make(map[int]float64, len(vars))
			for _, v := range vars {
				coeffs[v] = 1
			}
			prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: coeffs, Op: lp.LE, RHS: 1})
		}
		sol, err := lp.Solve(prob)
		if err != nil {
			continue // defensive: an LE-only program is always feasible
		}
		for v, on := range sol.X {
			if on {
				e := comp[v]
				selected[[2]string{cols[e.i].name, cols[e.j].name}] = true
			}
		}
	}
	return selected
}

func downsample(sorted []float64, max int) []float64 {
	if len(sorted) <= max {
		return sorted
	}
	out := make([]float64, max)
	step := float64(len(sorted)-1) / float64(max-1)
	for i := range out {
		out[i] = sorted[int(float64(i)*step)]
	}
	return out
}

// quantileSketch returns q evenly spaced quantiles of a sorted sample; an
// empty sample maps to a zero sketch so EMD comparisons stay defined.
func quantileSketch(sorted []float64, q int) []float64 {
	out := make([]float64, q)
	if len(sorted) == 0 {
		return out
	}
	for i := 0; i < q; i++ {
		pos := float64(i) / float64(q-1) * float64(len(sorted)-1)
		lo := int(pos)
		hi := lo
		if hi+1 < len(sorted) {
			hi++
		}
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}
