// Discovery: use Valentine as the schema-matching component of a dataset
// discovery pipeline — the use case the paper motivates. A small "data
// lake" of tables is derived from three domains; given a query table, each
// candidate lake table is scored for joinability by the best-ranked column
// correspondence, producing a ranked list of joinable datasets.
//
//	go run ./examples/discovery
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"valentine"
)

func main() {
	opts := valentine.DatasetOptions{Rows: 150, Seed: 3}

	// Build the lake: vertical fragments of three different source tables.
	fab := valentine.NewFabricator(11)
	type lakeEntry struct {
		name     string
		table    *valentine.Table
		joinable bool // whether it truly shares columns with the query
	}
	var lake []lakeEntry

	// Fragments of the prospect table: these share join columns with the
	// query table below.
	prospect := valentine.TPCDI(opts)
	j1, err := fab.Joinable(prospect, 0.5, 1.0, false)
	if err != nil {
		log.Fatal(err)
	}
	query := j1.Source
	query.Name = "query_prospects"
	j1.Target.Name = "crm_extract"
	lake = append(lake, lakeEntry{"crm_extract", j1.Target, true})

	j2, err := fab.SemanticallyJoinable(prospect, 0.3, 1.0, true)
	if err != nil {
		log.Fatal(err)
	}
	j2.Target.Name = "marketing_dump"
	lake = append(lake, lakeEntry{"marketing_dump", j2.Target, true})

	// Unrelated tables from other domains.
	lake = append(lake,
		lakeEntry{"civic_programs", valentine.OpenData(opts), false},
		lakeEntry{"assay_results", valentine.ChEMBL(opts), false},
	)

	// Rank lake tables by joinability with the query table: the score of a
	// candidate is its best column-correspondence score.
	m, err := valentine.NewMatcher(valentine.MethodComaInstance, nil)
	if err != nil {
		log.Fatal(err)
	}
	type ranked struct {
		name  string
		score float64
		top   valentine.Match
		truth bool
	}
	var results []ranked
	for _, entry := range lake {
		matches, err := valentine.MatchWithContext(context.Background(), m, query, entry.table, valentine.EngineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		best := valentine.Match{}
		if len(matches) > 0 {
			best = matches[0]
		}
		results = append(results, ranked{entry.name, best.Score, best, entry.joinable})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].score > results[j].score })

	fmt.Printf("joinable-table search for %q over %d lake tables (%s):\n\n",
		query.Name, len(lake), m.Name())
	for rank, r := range results {
		marker := " "
		if r.truth {
			marker = "✓"
		}
		fmt.Printf("%d. %s %-18s score %.3f  best join: %s ⋈ %s\n",
			rank+1, marker, r.name, r.score, r.top.SourceColumn, r.top.TargetColumn)
	}
	fmt.Println("\n✓ marks tables fabricated from the query's source (truly joinable).")
}
