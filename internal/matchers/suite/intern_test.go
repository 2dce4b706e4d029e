package suite

// Randomized conformance of the interned kernels at suite level: over
// fuzzed corpora, every matcher scored on map-based (dictionary-less)
// profiles and on interned (shared-dictionary) profiles must produce
// bit-identical rankings, and discovery search over an interned catalog
// must return exactly the results of one fed dictionary-less profiles.
// The whole test runs under -race in CI (the race-serving leg), so it also
// exercises concurrent interning through the store's parallel Warm.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"valentine/internal/core"
	"valentine/internal/discovery"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// fuzzTable builds a table whose columns draw from a shared vocabulary, so
// cross-table value overlap — the input the interned kernels accelerate —
// is substantial and randomly shaped.
func fuzzTable(rng *rand.Rand, name string, vocab int) *table.Table {
	t := table.New(name)
	cols := 2 + rng.Intn(3)
	rows := 30 + rng.Intn(90)
	kinds := []string{"id", "name", "city", "code", "amount"}
	for c := 0; c < cols; c++ {
		vals := make([]string, rows)
		for r := range vals {
			switch rng.Intn(12) {
			case 0:
				vals[r] = "" // empty cells
			case 1:
				vals[r] = fmt.Sprintf("%d.%d", rng.Intn(100), rng.Intn(100)) // numerics
			default:
				vals[r] = fmt.Sprintf("%s-%d", kinds[c%len(kinds)], rng.Intn(vocab))
			}
		}
		t.AddColumn(fmt.Sprintf("%s_%d", kinds[c%len(kinds)], c), vals)
	}
	return t
}

// TestInternedKernelsConformance fuzzes table pairs and asserts every
// matcher ranks bit-identically on the map-based and interned paths.
func TestInternedKernelsConformance(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	matchers := allMatchers(t)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		src := fuzzTable(rng, "src", 40+rng.Intn(80))
		tgt := fuzzTable(rng, "tgt", 40+rng.Intn(80))
		store := profile.NewStore()
		store.Warm(src, tgt) // parallel warm: concurrent interning under -race
		for name, m := range matchers {
			plain, err := core.MatchProfilesWithContext(context.Background(), m, profile.New(src), profile.New(tgt))
			if err != nil {
				t.Fatalf("trial %d %s (map path): %v", trial, name, err)
			}
			interned, err := core.MatchProfilesWithContext(context.Background(), m, store.Of(src), store.Of(tgt))
			if err != nil {
				t.Fatalf("trial %d %s (interned path): %v", trial, name, err)
			}
			if len(plain) != len(interned) {
				t.Fatalf("trial %d %s: lengths differ: map %d vs interned %d", trial, name, len(plain), len(interned))
			}
			for i := range plain {
				if plain[i] != interned[i] {
					t.Fatalf("trial %d %s rank %d differs:\n  map      %v\n  interned %v",
						trial, name, i, plain[i], interned[i])
				}
			}
		}
	}
}

// TestDiscoveryTopKConformance fuzzes a corpus and asserts that discovery
// search over the catalog (whose ingest and queries run interned /
// hash-sharing against the catalog dictionary) returns exactly the results
// of a catalog fed dictionary-less profiles — top-k order, scores, best
// correspondences and candidate counts included — in both modes, for both
// the sharded and brute-force paths.
func TestDiscoveryTopKConformance(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		interned := discovery.New(discovery.Options{SealAfter: 3})
		plain := discovery.New(discovery.Options{SealAfter: 3})
		for i := 0; i < 10; i++ {
			tab := fuzzTable(rng, fmt.Sprintf("t%d", i), 60)
			if err := interned.Add(tab); err != nil { // interns into the catalog dict
				t.Fatal(err)
			}
			if err := plain.AddProfiled(profile.New(tab.Clone())); err != nil { // dictionary-less
				t.Fatal(err)
			}
		}
		for q := 0; q < 3; q++ {
			query := fuzzTable(rng, "", 60)
			for _, mode := range []discovery.Mode{discovery.ModeJoin, discovery.ModeUnion} {
				want, err := plain.Search(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				got, err := interned.Search(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d query %d mode %s: top-k diverged:\n got %+v\nwant %+v",
						trial, q, mode, got, want)
				}
				gotBrute, err := interned.SearchBruteForce(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				wantBrute, err := plain.SearchBruteForce(query, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotBrute, wantBrute) {
					t.Fatalf("trial %d query %d mode %s: brute top-k diverged", trial, q, mode)
				}
			}
		}
	}
}
