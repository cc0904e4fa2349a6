// Clinical data integration — the paper's Example 1, end to end.
//
// Four HMOs hold confidential diabetes-care test compliance rates. An
// integrator publishes the aggregate tables of Figure 1(a)/(b). A snooping
// HMO then combines the aggregates with knowledge of its own rates and
// pins every other HMO's confidential rate to a narrow interval (Figure
// 1(d)) — the privacy breach the paper opens with. Finally, the mediation
// engine's Privacy Control runs the same attack *defensively*, refuses the
// joint release, and shows a coarsened release that passes.
//
// Run: go run ./examples/clinical
package main

import (
	"fmt"
	"log"

	"privateiye/internal/attack"
	"privateiye/internal/clinical"
	"privateiye/internal/experiments"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/relational"
	"privateiye/internal/source"
	"privateiye/internal/stats"
)

func main() {
	// --- The integrator publishes Figure 1(a) and 1(b). ---
	a, err := experiments.Fig1a()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a)
	b, err := experiments.Fig1b()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(b)

	// --- HMO1 snoops. ---
	fmt.Println("HMO1 runs the NLP inference attack on the published aggregates...")
	k := attack.FromPublished(clinical.Figure1Published(), 0, clinical.Figure1HMO1Row())
	k.Tolerance = 0.025
	inf, err := k.Infer(attack.FastOptions())
	if err != nil {
		log.Fatal(err)
	}
	for h := 1; h < 4; h++ {
		fmt.Printf("  %s:", clinical.HMOs[h])
		for t := range clinical.Tests {
			iv := inf.Intervals[h][t]
			fmt.Printf("  %s in [%.1f, %.1f]", clinical.Tests[t], iv.Lo, iv.Hi)
		}
		fmt.Println()
	}
	fmt.Printf("worst-case disclosure: %.1f%% of the prior uncertainty is gone\n\n",
		100*inf.MaxDisclosure())

	// --- The mediator's Privacy Control catches this before release. ---
	med := mediatorOverHMOs()
	dec, err := med.CheckAggregateRelease(clinical.Figure1GroundTruth(), 1, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Privacy Control on the joint release: allowed=%v (worst disclosure %.3f, %d breaching cells)\n",
		dec.Allowed, dec.WorstDisclosure, len(dec.Breaches))

	// --- A defensible alternative: coarsen before publishing. ---
	coarse := make([][]float64, 4)
	for h, row := range clinical.Figure1GroundTruth() {
		coarse[h] = make([]float64, len(row))
		for t, v := range row {
			coarse[h][t] = stats.Round(v/10, 0) * 10 // publish to the nearest 10 points
		}
	}
	dec2, err := med.CheckAggregateRelease(coarse, 0, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Privacy Control on a 10-point-coarsened release: allowed=%v (worst disclosure %.3f)\n",
		dec2.Allowed, dec2.WorstDisclosure)
	fmt.Println("\nThe framework detects and blocks exactly the breach the paper's Example 1 describes.")
}

// mediatorOverHMOs builds a minimal mediator over the four HMO sources so
// Privacy Control has a running engine to live in.
func mediatorOverHMOs() *mediator.Mediator {
	var eps []source.Endpoint
	for i, name := range clinical.HMOs {
		tab, err := clinical.ComplianceTable("compliance", []string{name}, clinical.Tests,
			[][]float64{clinical.Figure1GroundTruth()[i]})
		if err != nil {
			log.Fatal(err)
		}
		cat := relational.NewCatalog()
		if err := cat.Add(tab); err != nil {
			log.Fatal(err)
		}
		pol, err := policy.NewPolicy(name, policy.Deny,
			policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		)
		if err != nil {
			log.Fatal(err)
		}
		src, err := source.New(source.Config{Name: name, Catalog: cat, Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		ep, err := source.NewLocal(src, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		eps = append(eps, ep)
	}
	med, err := mediator.New(mediator.Config{Endpoints: eps})
	if err != nil {
		log.Fatal(err)
	}
	return med
}
