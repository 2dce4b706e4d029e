// Feedbackloop: the paper argues schema matching should be treated as a
// search problem with a human in the loop — ranked candidates reviewed,
// confirmed or rejected, and the ranking revised. This example runs a weak
// matcher on a hard fabricated pair and shows Recall@GT improving as an
// oracle (the ground truth) answers the suite's suggested questions.
//
//	go run ./examples/feedbackloop
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"valentine"
)

func main() {
	source := valentine.OpenData(valentine.DatasetOptions{Rows: 120, Seed: 17})
	fab := valentine.NewFabricator(23)
	pair, err := fab.ViewUnionable(source, 0.5,
		valentine.Variant{NoisySchema: true, NoisyInstances: true})
	if err != nil {
		log.Fatal(err)
	}

	m, err := valentine.NewMatcher(valentine.MethodSimFlood, nil)
	if err != nil {
		log.Fatal(err)
	}
	matches, err := valentine.MatchWithContext(context.Background(), m, pair.Source, pair.Target, valentine.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	base, err := valentine.RecallAtGT(matches, pair.Truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matcher %s on %s\n", m.Name(), pair.Name)
	fmt.Printf("baseline recall@GT = %.3f over %d ground-truth pairs\n\n",
		base, pair.Truth.Size())

	trajectory, err := valentine.SimulateFeedback(matches, pair.Truth, 25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recall@GT after each answered review question:")
	for i, r := range trajectory {
		bar := strings.Repeat("█", int(r*40))
		fmt.Printf("%3d answers %.3f %s\n", i, r, bar)
	}
	fmt.Println("\nEach question is chosen by expected ranking impact (contested")
	fmt.Println("candidates first); verdicts rerank candidates without retraining.")
}
