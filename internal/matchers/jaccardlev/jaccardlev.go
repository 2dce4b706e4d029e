// Package jaccardlev implements Valentine's baseline matcher: pairwise
// column Jaccard similarity where two values count as identical when their
// normalized Levenshtein similarity meets a threshold (paper §VI-A, "a
// naive instance-based matcher ... ca. 70 lines of Python").
package jaccardlev

import (
	"context"
	"sort"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/intern"
	"valentine/internal/profile"
	"valentine/internal/strutil"
)

// Matcher is the Jaccard-Levenshtein baseline.
type Matcher struct {
	// Threshold is the Levenshtein-similarity cutoff above which two values
	// are treated as identical (Table II sweeps 0.4–0.8).
	Threshold float64
	// MaxSample caps the distinct values considered per column; the paper's
	// implementation is quadratic in value-set size and this cap keeps the
	// suite tractable at identical ranking behaviour for high-cardinality
	// columns. 0 means the default of 120.
	MaxSample int
}

// New builds the baseline from params: "threshold" (default 0.8) and
// "max_sample" (default 120).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		Threshold: p.Float("threshold", 0.8),
		MaxSample: p.Int("max_sample", 120),
	}, nil
}

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "jaccard-levenshtein" }

// MatchProfilesContext implements core.Matcher: it ranks every cross-table
// column pair by fuzzy Jaccard similarity. Per-column distinct-value samples
// (from the profiles' cached sorted distinct values, plus their interned-id
// form and length-sorted fuzzy candidates) are generated once up front, then
// the quadratic fuzzy-Jaccard scoring fans out on the engine's worker pool
// with no per-pair allocation.
func (m *Matcher) MatchProfilesContext(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()
	limit := m.MaxSample
	if limit <= 0 {
		limit = 120
	}
	// Both tables interning into one dictionary selects the integer-set
	// representation for every sample up front; otherwise only the string
	// maps are built — never both.
	useIDs := sp.InterningDict() != nil && sp.InterningDict() == tp.InterningDict()
	var srcSets, tgtSets []colSample
	engine.StatsFrom(ctx).Timed(engine.StageGenerate, func() {
		srcSets = make([]colSample, len(source.Columns))
		for i := range source.Columns {
			srcSets[i] = sampleColumn(sp.Column(i), limit, useIDs)
		}
		tgtSets = make([]colSample, len(target.Columns))
		for i := range target.Columns {
			tgtSets[i] = sampleColumn(tp.Column(i), limit, useIDs)
		}
	})
	return engine.ScorePairs(ctx, sp, tp, func(i, j int) (float64, bool) {
		return fuzzyJaccard(&srcSets[i], &tgtSets[j], m.Threshold), true
	})
}

// colSample is one column's sampled distinct values in every form scoring
// needs, precomputed once per column instead of once per pair:
//
//   - vals: the sample, lexicographic (the deterministic stride sample)
//   - byLen: vals sorted by length — the fuzzy phase's candidate order
//   - ids/idVals: the sample sorted by interned id with the values kept
//     parallel, when the column's profile carries a value dictionary — the
//     exact-overlap prescreen merges two id slices allocation-free instead
//     of probing a per-pair string map.
type colSample struct {
	vals   []string
	byLen  []string
	set    map[string]struct{} // exact-membership fallback (mixed/no dictionary)
	dict   *intern.Dict        // the dictionary ids were minted by (nil: none)
	ids    []uint32
	idVals []string
}

// sampleColumn samples up to max distinct values, deterministically (the
// lexicographically first ones, stride-sampled across the sorted set to
// keep the value range), so runs are reproducible. useIDs selects the
// interned-id representation (the caller must have checked both tables
// intern into one dictionary); otherwise the string-membership map is
// built instead.
func sampleColumn(p *profile.Profile, max int, useIDs bool) colSample {
	cs := colSample{vals: p.SampleDistinct(max)}
	vals := cs.vals
	cs.byLen = append([]string(nil), vals...)
	sort.Slice(cs.byLen, func(i, j int) bool { return len(cs.byLen[i]) < len(cs.byLen[j]) })
	if !useIDs {
		cs.set = make(map[string]struct{}, len(vals))
		for _, v := range vals {
			cs.set[v] = struct{}{}
		}
	} else if d := p.Dict(); p.InternedDistinct() != nil {
		cs.dict = d
		// The profile's distinct values are all interned (InternedDistinct
		// forced that), so every sample value resolves; sorting the sample
		// by id sets up the pairwise sorted-merge prescreen.
		type pair struct {
			id uint32
			v  string
		}
		pairs := make([]pair, len(vals))
		for i, v := range vals {
			id, _ := d.Lookup(v)
			pairs[i] = pair{id, v}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
		cs.ids = make([]uint32, len(pairs))
		cs.idVals = make([]string, len(pairs))
		for i, pr := range pairs {
			cs.ids[i] = pr.id
			cs.idVals[i] = pr.v
		}
	}
	return cs
}

// fuzzyJaccard computes |fuzzy ∩| / |∪| where a source value is in the
// intersection when it appears verbatim on the target side or some target
// value is within the Levenshtein threshold. With interned samples the
// exact-overlap prescreen is a sorted-merge over id slices: values matched
// by id never touch the Levenshtein machinery, and the whole pairwise call
// allocates nothing. Scores are bit-identical on both paths — id equality
// is value equality.
func fuzzyJaccard(a, b *colSample, threshold float64) float64 {
	if len(a.vals) == 0 || len(b.vals) == 0 {
		return 0
	}
	matched := 0
	if a.dict != nil && a.dict == b.dict {
		i, j := 0, 0
		for i < len(a.ids) && j < len(b.ids) {
			switch {
			case a.ids[i] == b.ids[j]:
				matched++
				i++
				j++
			case a.ids[i] < b.ids[j]:
				if fuzzyContains(a.idVals[i], b.byLen, threshold) {
					matched++
				}
				i++
			default:
				j++
			}
		}
		for ; i < len(a.ids); i++ {
			if fuzzyContains(a.idVals[i], b.byLen, threshold) {
				matched++
			}
		}
	} else {
		for _, av := range a.vals {
			if _, ok := b.set[av]; ok {
				matched++
				continue
			}
			if fuzzyContains(av, b.byLen, threshold) {
				matched++
			}
		}
	}
	union := len(a.vals) + len(b.vals) - matched
	if union <= 0 {
		return 0
	}
	return float64(matched) / float64(union)
}

// fuzzyContains reports whether any candidate is within the Levenshtein
// similarity threshold of v. Candidates must be sorted by length; lengths
// incompatible with the threshold are pruned without edit-distance work.
func fuzzyContains(v string, candidates []string, threshold float64) bool {
	lv := len(v)
	for _, c := range candidates {
		lc := len(c)
		maxLen := lv
		if lc > maxLen {
			maxLen = lc
		}
		if maxLen == 0 {
			continue
		}
		// Levenshtein ≥ |len difference|, so sim ≤ 1 − |Δlen|/maxLen.
		diff := lv - lc
		if diff < 0 {
			diff = -diff
		}
		if 1-float64(diff)/float64(maxLen) < threshold {
			if lc > lv {
				return false // candidates only get longer from here
			}
			continue
		}
		if strutil.LevenshteinSim(v, c) >= threshold {
			return true
		}
	}
	return false
}
