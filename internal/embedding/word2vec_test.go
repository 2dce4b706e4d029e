package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildUnigramTable materializes the negative-sampling table the sampler
// stands in for: ceil(count_i^power / total · size) copies of each word i,
// in vocabulary order. It is the oracle for unigramSampler.
func buildUnigramTable(counts []int, size int, power float64) []int {
	total := 0.0
	for _, c := range counts {
		total += math.Pow(float64(c), power)
	}
	table := make([]int, 0, size)
	for i, c := range counts {
		n := int(math.Ceil(math.Pow(float64(c), power) / total * float64(size)))
		for k := 0; k < n; k++ {
			table = append(table, i)
		}
	}
	return table
}

// checkSamplerAgainstTable asserts that every slot of the materialized
// table maps to the same word through the sampler.
func checkSamplerAgainstTable(t *testing.T, name string, counts []int, size int) {
	t.Helper()
	table := buildUnigramTable(counts, size, 0.75)
	s := newUnigramSampler(counts, size, 0.75)
	if s.slots != len(table) {
		t.Fatalf("%s: sampler draws from %d slots, table has %d", name, s.slots, len(table))
	}
	for r, want := range table {
		if got := s.sample(r); got != want {
			t.Fatalf("%s: slot %d maps to word %d, table holds %d", name, r, got, want)
		}
	}
}

func TestUnigramSamplerMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		counts := make([]int, 1+rng.Intn(600))
		for i := range counts {
			counts[i] = 1 + rng.Intn(50)
		}
		checkSamplerAgainstTable(t, fmt.Sprintf("random %d", trial), counts, 1<<17)
	}
}

func TestUnigramSamplerEdges(t *testing.T) {
	// One word owns every slot.
	checkSamplerAgainstTable(t, "one word", []int{7}, 1<<17)

	// Equal counts that split 2^17 evenly: the slot total is an exact
	// multiple of the bucket width, so a bucket count rounded up one too
	// far would index past ends. Count 1 keeps count^power exact.
	even := make([]int, 64)
	for i := range even {
		even[i] = 1
	}
	if got := newUnigramSampler(even, 1<<17, 0.75).slots; got%(1<<samplerShift) != 0 {
		t.Fatalf("even counts: %d slots, want a multiple of %d", got, 1<<samplerShift)
	}
	checkSamplerAgainstTable(t, "exact multiple", even, 1<<17)
	checkSamplerAgainstTable(t, "one bucket", []int{1}, 1<<samplerShift)

	// Heavy skew: one dominant word among many singletons, so most buckets
	// hold one word and a few hold dozens.
	skew := make([]int, 500)
	for i := range skew {
		skew[i] = 1
	}
	skew[250] = 1_000_000
	checkSamplerAgainstTable(t, "heavy skew", skew, 1<<17)

	// More words than slots: every word still gets one slot.
	many := make([]int, 3000)
	for i := range many {
		many[i] = 1 + i%5
	}
	checkSamplerAgainstTable(t, "vocabulary wider than the table", many, 1<<10)
}

func TestSigmoidTableAccuracy(t *testing.T) {
	// Entries sit at bucket centres 12/1000 apart and the logistic's slope
	// is at most 1/4, so inside ±6 the table is within 0.0015 of it. Past
	// ±6 the clamp's error is at most σ(-6) ≈ 0.00247.
	const inner = 0.25 * maxExp / expTableSize
	outer := 1 / (1 + math.Exp(maxExp))
	prev := 0.0
	for x := -8.0; x <= 8; x += 1.0 / 1024 {
		got := sigmoid(x)
		bound := inner
		if math.Abs(x) >= maxExp {
			bound = outer
		}
		if want := 1 / (1 + math.Exp(-x)); math.Abs(got-want) > bound {
			t.Fatalf("sigmoid(%v) = %v, logistic %v: error above %v", x, got, want, bound)
		}
		if got < 0 || got > 1 {
			t.Fatalf("sigmoid(%v) = %v outside [0, 1]", x, got)
		}
		if got < prev {
			t.Fatalf("sigmoid not monotone at %v: %v after %v", x, got, prev)
		}
		prev = got
	}
	// Nextafter(6, 0) + 6 rounds to 12, the table's end: it must read the
	// last entry, not index past it.
	for _, x := range []float64{6, 6.5, 100, math.Inf(1), math.Nextafter(6, 0)} {
		if got := sigmoid(x); x >= maxExp && got != 1 {
			t.Errorf("sigmoid(%v) = %v, want clamp to 1", x, got)
		} else if got < 0.99 || got > 1 {
			t.Errorf("sigmoid(%v) = %v, want about 1", x, got)
		}
	}
	for _, x := range []float64{-6, -6.5, -100, math.Inf(-1), math.NaN()} {
		if got := sigmoid(x); got != 0 {
			t.Errorf("sigmoid(%v) = %v, want clamp to 0", x, got)
		}
	}
}

func TestDot4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 70; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if got, want := dot4(a, b), Dot(a, b); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("len %d: dot4 = %v, Dot = %v", n, got, want)
		}
	}
}

// BenchmarkTrainWord2Vec trains on walk corpora shaped like EmbDI's: at
// EmbDI's dimension 48, window 3 and 3 epochs, 8 length-20 walks per row
// and column node, each alternating between a cell value and a row or
// column it occurs in. "table5-pair" is the size of a Table V suite pair
// (2×40 rows, 2×6 columns, 25 values per column, about 400 words);
// "max-rows" is EmbDI's default row cap of 400 per table with mostly
// distinct values (about 9300 words), where the negative sampler has the
// most words to choose from.
func BenchmarkTrainWord2Vec(b *testing.B) {
	for _, bc := range []struct {
		name           string
		rows, distinct int
	}{
		{"table5-pair", 80, 25},
		{"max-rows", 800, 3200},
	} {
		b.Run(bc.name, func(b *testing.B) {
			corpus := walkCorpus(bc.rows, 12, bc.distinct, 8, 20)
			opts := Word2VecOptions{Dim: 48, Window: 3, Epochs: 3, Seed: 1}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := TrainWord2Vec(corpus, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// walkCorpus starts the given number of walks, each of the given length,
// at every row and column of a rows×cols grid whose cells each take one of
// `distinct` values per column.
func walkCorpus(rows, cols, distinct, walks, length int) [][]string {
	rng := rand.New(rand.NewSource(1))
	values := make([][]string, rows)
	for r := range values {
		values[r] = make([]string, cols)
		for c := range values[r] {
			values[r][c] = fmt.Sprintf("tt__%d_%d", c, rng.Intn(distinct))
		}
	}
	var corpus [][]string
	for start := 0; start < rows+cols; start++ {
		for w := 0; w < walks; w++ {
			sent := make([]string, 0, length)
			r, c := start%rows, start%cols
			for len(sent) < length {
				if rng.Intn(2) == 0 {
					sent = append(sent, fmt.Sprintf("idx__%d", r))
					c = rng.Intn(cols)
				} else {
					sent = append(sent, fmt.Sprintf("cid__%d", c))
					r = rng.Intn(rows)
				}
				sent = append(sent, values[r][c])
			}
			corpus = append(corpus, sent)
		}
	}
	return corpus
}
