// Package cupid reimplements the Cupid matcher (Madhavan, Bernstein & Rahm,
// VLDB 2001) adapted to denormalized tables, as in the paper.
//
// Schemata become two-level trees (table root, column leaves). Element
// similarity is the weighted sum of linguistic similarity — thesaurus-aided
// token matching, WordNet replaced by the embedded schema-domain thesaurus
// (see DESIGN.md §4) — and structural similarity, which for leaves combines
// data-type compatibility with the context contributed by the root and
// siblings. wsim = w_struct·ssim + (1−w_struct)·lsim, with the leaf
// structural weight (leaf_w_struct) and accept threshold (th_accept) from
// Table II.
package cupid

import (
	"context"

	"valentine/internal/core"
	"valentine/internal/engine"
	"valentine/internal/profile"
	"valentine/internal/strutil"
	"valentine/internal/table"
	"valentine/internal/wordnet"
)

// Matcher is a configured Cupid instance.
type Matcher struct {
	LeafWStruct float64 // structural weight at leaf level (Table II: 0–0.6)
	WStruct     float64 // structural weight when combining (Table II: 0–0.6)
	ThAccept    float64 // accept threshold (Table II: 0.3–0.8)
	ThHigh      float64 // strong-link threshold for the structural pass
	Thesaurus   *wordnet.Thesaurus
}

// New builds Cupid from params: "leaf_w_struct" (default 0.2), "w_struct"
// (default 0.2), "th_accept" (default 0.3), "th_high" (default 0.6).
func New(p core.Params) (core.Matcher, error) {
	return &Matcher{
		LeafWStruct: p.Float("leaf_w_struct", 0.2),
		WStruct:     p.Float("w_struct", 0.2),
		ThAccept:    p.Float("th_accept", 0.3),
		ThHigh:      p.Float("th_high", 0.6),
		Thesaurus:   wordnet.Default(),
	}, nil
}

// Name implements core.Matcher.
func (m *Matcher) Name() string { return "cupid" }

// MatchProfilesContext implements core.Matcher. Column- and table-name tokens
// come from the profiles' caches. Pass 1 (the linguistic similarity matrix,
// Cupid's dominant cost) fans out one source row at a time on the engine
// pool; pass 2 is a cheap sequential reduction over the matrices; the final
// wsim emission runs through the engine's pair scorer.
func (m *Matcher) MatchProfilesContext(ctx context.Context, sp, tp *profile.TableProfile) ([]core.Match, error) {
	if err := core.ValidatePair(sp, tp); err != nil {
		return nil, err
	}
	source, target := sp.Table(), tp.Table()
	th := m.Thesaurus
	if th == nil {
		th = wordnet.Default()
	}

	srcTok := tokenized(sp)
	tgtTok := tokenized(tp)

	// Pass 1: linguistic similarity and leaf structural similarity, row by
	// row on the pool — each row depends only on its own source column.
	nSrc, nTgt := len(source.Columns), len(target.Columns)
	lsim := make([][]float64, nSrc)
	leafS := make([][]float64, nSrc)
	rootLing := m.linguistic(th, sp.NameTokens(), tp.NameTokens())
	stats := engine.StatsFrom(ctx)
	var genErr error
	stats.Timed(engine.StageGenerate, func() {
		genErr = engine.Map(ctx, engine.OptionsFrom(ctx).Workers(), nSrc, func(i int) error {
			lsim[i] = make([]float64, nTgt)
			leafS[i] = make([]float64, nTgt)
			for j := range target.Columns {
				lsim[i][j] = m.linguistic(th, srcTok[i], tgtTok[j])
				// Leaf structural signal: data-type compatibility blended with
				// the linguistic similarity of the ancestors (the roots).
				leafS[i][j] = 0.5*typeCompat(source.Columns[i].Type, target.Columns[j].Type) + 0.5*rootLing
			}
			return nil
		})
	})
	if genErr != nil {
		return nil, genErr
	}

	// Pass 2: the mutually-recursive structural refinement, one round as in
	// the original tree walk: root structural similarity is the fraction of
	// strongly-linked leaf pairs, which then feeds back into leaf ssim.
	strong, total := 0, 0
	for i := 0; i < nSrc; i++ {
		for j := 0; j < nTgt; j++ {
			w := m.LeafWStruct*leafS[i][j] + (1-m.LeafWStruct)*lsim[i][j]
			if w >= m.ThHigh {
				strong++
			}
			total++
		}
	}
	rootStruct := 0.0
	if total > 0 {
		rootStruct = float64(strong) / float64(total)
	}

	return engine.ScorePairs(ctx, sp, tp, func(i, j int) (float64, bool) {
		ssim := 0.7*leafS[i][j] + 0.3*rootStruct
		wsim := m.WStruct*ssim + (1-m.WStruct)*lsim[i][j]
		return wsim, wsim >= m.ThAccept
	})
}

func tokenized(tp *profile.TableProfile) [][]string {
	out := make([][]string, tp.NumColumns())
	for i := range out {
		out[i] = tp.Column(i).NameTokens()
	}
	return out
}

// linguistic computes Cupid's name similarity over token sets: each token
// is matched to its best counterpart where token similarity is the maximum
// of thesaurus similarity and character-trigram similarity; the directional
// sums are combined symmetrically.
func (m *Matcher) linguistic(th *wordnet.Thesaurus, a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	best := func(from, to []string) float64 {
		sum := 0.0
		for _, x := range from {
			bx := 0.0
			for _, y := range to {
				s := tokenSim(th, x, y)
				if s > bx {
					bx = s
				}
			}
			sum += bx
		}
		return sum
	}
	return (best(a, b) + best(b, a)) / float64(len(a)+len(b))
}

func tokenSim(th *wordnet.Thesaurus, a, b string) float64 {
	if a == b {
		return 1
	}
	// Stemmed equality ("orders" vs "order") counts as a near-exact match,
	// mirroring the original's WordNet-side normalization.
	if strutil.Stem(a) == strutil.Stem(b) {
		return 0.95
	}
	s := th.Similarity(a, b)
	if g := strutil.TrigramSim(a, b); g > s {
		s = g
	}
	return s
}

// typeCompat is Cupid's data-type compatibility score.
func typeCompat(a, b table.Type) float64 {
	switch {
	case a == b:
		return 1
	case (a == table.Int || a == table.Float) && (b == table.Int || b == table.Float):
		return 0.9
	case a.Compatible(b):
		return 0.5
	default:
		return 0.2
	}
}
