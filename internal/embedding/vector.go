// Package embedding provides the word-vector substrate for Valentine's
// hybrid matchers.
//
// Two sources of vectors exist:
//
//   - Pretrained: a deterministic stand-in for fastText/word2vec vectors
//     trained on natural-language corpora (SemProp's requirement). Vectors
//     are hash-seeded random projections blended with per-synset anchor
//     vectors from the embedded thesaurus, guaranteeing that synonyms are
//     close and unrelated words are near-orthogonal — exactly the property
//     SemProp exploits.
//
//   - Word2Vec: a full skip-gram-with-negative-sampling trainer used by the
//     EmbDI matcher on its random-walk sentences, implemented from scratch.
//     EmbDI trains a model per table pair, so the kernel is kept
//     cache-resident: flat vector matrices, a table-free unigram sampler
//     (prefix sums plus a coarse bucket index, drawing the same words a
//     materialized 2^17-slot table would), a precomputed logistic table (a
//     centre-sampled variant of Mikolov's EXP_TABLE), and a four-lane dot
//     product.
package embedding

import (
	"fmt"
	"math"
)

// Vector is a dense embedding.
type Vector []float64

// Dot returns the inner product; mismatched lengths use the shorter prefix.
func Dot(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm.
func Norm(a Vector) float64 { return math.Sqrt(Dot(a, a)) }

// Cosine returns the cosine similarity in [-1,1]; zero vectors score 0.
func Cosine(a, b Vector) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// Normalize scales a to unit norm in place and returns it; zero vectors are
// returned unchanged.
func Normalize(a Vector) Vector {
	n := Norm(a)
	if n == 0 {
		return a
	}
	for i := range a {
		a[i] /= n
	}
	return a
}

// Add accumulates b into a (prefix-length semantics as Dot).
func Add(a, b Vector) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		a[i] += b[i]
	}
}

// Scale multiplies a by k in place.
func Scale(a Vector, k float64) {
	for i := range a {
		a[i] *= k
	}
}

// Mean returns the centroid of the given vectors, or an error for empty
// input or mismatched dimensions.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("embedding: mean of no vectors")
	}
	dim := len(vs[0])
	out := make(Vector, dim)
	for _, v := range vs {
		if len(v) != dim {
			return nil, fmt.Errorf("embedding: dimension mismatch %d vs %d", len(v), dim)
		}
		Add(out, v)
	}
	Scale(out, 1/float64(len(vs)))
	return out, nil
}
