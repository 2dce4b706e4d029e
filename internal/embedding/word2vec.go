package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Word2VecOptions configures skip-gram training. Zero values take the
// defaults noted per field.
type Word2VecOptions struct {
	Dim          int     // vector size (default 64)
	Window       int     // context window (default 3, the paper's EmbDI setting)
	Epochs       int     // passes over the corpus (default 5)
	Negative     int     // negative samples per positive (default 5)
	LearningRate float64 // initial alpha (default 0.025)
	MinCount     int     // discard words rarer than this (default 1)
	Seed         int64   // RNG seed (default 1)
}

func (o *Word2VecOptions) defaults() {
	if o.Dim <= 0 {
		o.Dim = 64
	}
	if o.Window <= 0 {
		o.Window = 3
	}
	if o.Epochs <= 0 {
		o.Epochs = 5
	}
	if o.Negative <= 0 {
		o.Negative = 5
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.025
	}
	if o.MinCount <= 0 {
		o.MinCount = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Model holds trained word vectors.
type Model struct {
	dim   int
	vocab map[string]int
	vecs  []Vector // input vectors, one per vocab entry, slicing one flat array
}

// Dim returns the vector dimensionality.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the number of words in the model.
func (m *Model) VocabSize() int { return len(m.vocab) }

// Vector returns the trained vector of a word and whether it is known.
func (m *Model) Vector(word string) (Vector, bool) {
	i, ok := m.vocab[word]
	if !ok {
		return nil, false
	}
	return m.vecs[i], true
}

// Similarity returns the cosine similarity of two words (0 when either is
// out of vocabulary).
func (m *Model) Similarity(a, b string) float64 {
	va, ok1 := m.Vector(a)
	vb, ok2 := m.Vector(b)
	if !ok1 || !ok2 {
		return 0
	}
	return Cosine(va, vb)
}

// TrainWord2Vec trains skip-gram word vectors with negative sampling over
// the sentences. Deterministic for a fixed seed.
//
// The kernel keeps its working set small enough to stay in cache: the input
// and output vectors are one flat array each, negatives are drawn from the
// unigram^{3/4} distribution by a table-free sampler (see newUnigramSampler)
// instead of a materialized 2^17-slot table, and the logistic is read from
// a precomputed table, a centre-sampled variant of Mikolov's EXP_TABLE (see
// expTable), rather than computed with math.Exp.
func TrainWord2Vec(sentences [][]string, opts Word2VecOptions) (*Model, error) {
	opts.defaults()
	// Build vocabulary.
	freq := make(map[string]int)
	for _, s := range sentences {
		for _, w := range s {
			if w != "" {
				freq[w]++
			}
		}
	}
	words := make([]string, 0, len(freq))
	for w, c := range freq {
		if c >= opts.MinCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("embedding: no vocabulary (min count %d)", opts.MinCount)
	}
	sort.Strings(words) // deterministic vocab order
	vocab := make(map[string]int, len(words))
	counts := make([]int, len(words))
	for i, w := range words {
		vocab[w] = i
		counts[i] = freq[w]
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	dim := opts.Dim
	inFlat := make([]float64, len(words)*dim)
	outFlat := make([]float64, len(words)*dim)
	for i := range inFlat {
		inFlat[i] = (rng.Float64() - 0.5) / float64(dim)
	}
	in := make([]Vector, len(words))
	out := make([]Vector, len(words))
	for i := range in {
		in[i] = inFlat[i*dim : (i+1)*dim : (i+1)*dim]
		out[i] = outFlat[i*dim : (i+1)*dim : (i+1)*dim]
	}

	// Negative sampling with the standard unigram^{3/4} distribution.
	neg := newUnigramSampler(counts, 1<<17, 0.75)

	// Encode sentences as index sequences once.
	encoded := make([][]int, 0, len(sentences))
	for _, s := range sentences {
		seq := make([]int, 0, len(s))
		for _, w := range s {
			if i, ok := vocab[w]; ok {
				seq = append(seq, i)
			}
		}
		if len(seq) > 1 {
			encoded = append(encoded, seq)
		}
	}
	if len(encoded) == 0 {
		return nil, fmt.Errorf("embedding: no trainable sentences")
	}

	totalSteps := 0
	for _, s := range encoded {
		totalSteps += len(s)
	}
	totalSteps *= opts.Epochs
	step := 0
	grad := make(Vector, dim)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for _, seq := range encoded {
			for pos, center := range seq {
				step++
				alpha := opts.LearningRate * (1 - float64(step)/float64(totalSteps+1))
				if alpha < opts.LearningRate*0.0001 {
					alpha = opts.LearningRate * 0.0001
				}
				w := 1 + rng.Intn(opts.Window)
				lo, hi := pos-w, pos+w
				if lo < 0 {
					lo = 0
				}
				if hi >= len(seq) {
					hi = len(seq) - 1
				}
				for c := lo; c <= hi; c++ {
					if c == pos {
						continue
					}
					ctx := seq[c]
					clear(grad)
					// positive sample
					sgdStep(in[center], out[ctx], 1, alpha, grad)
					// negative samples
					for k := 0; k < opts.Negative; k++ {
						n := neg.sample(rng.Intn(neg.slots))
						if n == ctx {
							continue
						}
						sgdStep(in[center], out[n], 0, alpha, grad)
					}
					Add(in[center], grad)
				}
			}
		}
	}
	return &Model{dim: dim, vocab: vocab, vecs: in}, nil
}

// sgdStep performs one logistic-regression update for (center, context)
// with label ∈ {0,1}, updating the output vector in place and accumulating
// the input-vector gradient into grad. context and grad are re-sliced to
// len(center) so the loop below runs without bounds checks.
func sgdStep(center, context Vector, label float64, alpha float64, grad Vector) {
	context = context[:len(center)]
	grad = grad[:len(center)]
	g := (label - sigmoid(dot4(center, context))) * alpha
	for i, c := range center {
		grad[i] += g * context[i]
		context[i] += g * c
	}
}

// dot4 is the inner product of two equal-length vectors summed in four
// independent lanes, which lets the CPU overlap the additions that a single
// accumulator would serialize. The lanes change the rounding, not the
// determinism: the summation order is fixed.
func dot4(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for i, x := range a {
		s0 += x * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// The logistic table, as in word2vec.c: 1000 entries over [-6, 6].
const (
	expTableSize = 1000
	maxExp       = 6
)

// expTable is a centre-sampled variant of Mikolov's EXP_TABLE: the logistic
// tabulated over expTableSize buckets of [-maxExp, maxExp]. Entry i holds σ
// at the centre of its bucket, not at the left edge as word2vec.c does: the
// error is then unbiased and at most half as large (0.0015), for the same
// lookup.
var expTable = func() (t [expTableSize]float64) {
	for i := range t {
		e := math.Exp(((float64(i)+0.5)/expTableSize*2 - 1) * maxExp)
		t[i] = e / (e + 1)
	}
	return t
}()

// sigmoid is the logistic 1/(1+e^-x) read from expTable, clamped to 0 and 1
// outside [-maxExp, maxExp] (NaN reads as 0).
func sigmoid(x float64) float64 {
	switch {
	case x >= maxExp:
		return 1
	case x > -maxExp:
		// x just below maxExp can round to the end of the table.
		i := int((x + maxExp) * (float64(expTableSize) / (2 * maxExp)))
		return expTable[min(i, expTableSize-1)]
	default:
		return 0
	}
}

// unigramSampler draws negatives from the unigram^power distribution. It
// maps a slot r ∈ [0, slots) to the same word a materialized table of
// ceil(count_i^power / total · size) copies of each word i would hold at
// r, without allocating that table: ends holds the table's prefix sums and
// first[b] the word at slot b<<samplerShift, so a draw reads one bucket
// entry and walks the words that start inside it. For a vocabulary of a
// few hundred words both slices fit in L1, where the table (2^17 ints)
// would not. A larger vocabulary puts more words in a bucket and lengthens
// the walk, but at EmbDI's default row cap (BenchmarkTrainWord2Vec/
// max-rows, about 9300 words, some 17 words per bucket) the walk still
// costs less than the table lookup it replaces.
type unigramSampler struct {
	slots int     // total table slots: the range to draw r from
	ends  []int32 // ends[i]: one past the last slot of word i
	first []int32 // first[b]: the word holding slot b<<samplerShift
}

// samplerShift sets the bucket width of unigramSampler.first to 256 slots.
const samplerShift = 8

// newUnigramSampler builds the sampler for a table of the given size. The
// counts are positive (the vocabulary holds words seen at least MinCount ≥ 1
// times), so every word owns at least one slot.
func newUnigramSampler(counts []int, size int, power float64) *unigramSampler {
	total := 0.0
	for _, c := range counts {
		total += math.Pow(float64(c), power)
	}
	s := &unigramSampler{ends: make([]int32, len(counts))}
	for i, c := range counts {
		s.slots += int(math.Ceil(math.Pow(float64(c), power) / total * float64(size)))
		s.ends[i] = int32(s.slots)
	}
	s.first = make([]int32, (s.slots+1<<samplerShift-1)>>samplerShift)
	w := int32(0)
	for b := range s.first {
		for s.ends[w] <= int32(b<<samplerShift) {
			w++
		}
		s.first[b] = w
	}
	return s
}

// sample returns the word at slot r ∈ [0, slots).
func (s *unigramSampler) sample(r int) int {
	w := s.first[r>>samplerShift]
	for s.ends[w] <= int32(r) {
		w++
	}
	return int(w)
}
