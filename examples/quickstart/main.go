// Quickstart: fabricate a matching problem from a generated table, run two
// matchers through the public API, and compare their ranked output against
// the ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"valentine"
)

func main() {
	// A Prospect-like source table (the TPC-DI stand-in).
	source := valentine.TPCDI(valentine.DatasetOptions{Rows: 200, Seed: 7})
	fmt.Printf("source: %s\n", source)

	// Fabricate a unionable pair with 50%% row overlap and noisy schemata —
	// the target's column names are perturbed, the ground truth tracks the
	// renames.
	fab := valentine.NewFabricator(42)
	pair, err := fab.Unionable(source, 0.5, valentine.Variant{NoisySchema: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabricated %q with %d ground-truth correspondences\n\n", pair.Name, pair.Truth.Size())

	for _, method := range []string{valentine.MethodComaSchema, valentine.MethodJaccardLev} {
		m, err := valentine.NewMatcher(method, nil)
		if err != nil {
			log.Fatal(err)
		}
		matches, err := valentine.MatchWithContext(context.Background(), m, pair.Source, pair.Target, valentine.EngineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		recall, err := valentine.RecallAtGT(matches, pair.Truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: recall@GT = %.3f; top 5 of %d ranked matches:\n",
			method, recall, len(matches))
		for i, match := range matches {
			if i == 5 {
				break
			}
			correct := " "
			if pair.Truth.Contains(match.SourceColumn, match.TargetColumn) {
				correct = "✓"
			}
			fmt.Printf("  %s %s\n", correct, match)
		}
		fmt.Println()
	}
}
