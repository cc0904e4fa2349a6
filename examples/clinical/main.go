// Clinical data integration — the paper's Example 1, end to end.
//
// Four HMOs hold confidential diabetes-care test compliance rates. An
// integrator publishes the aggregate tables of Figure 1(a)/(b). A snooping
// HMO then combines the aggregates with knowledge of its own rates and
// pins every other HMO's confidential rate to a narrow interval (Figure
// 1(d)) — the privacy breach the paper opens with. Finally, a mediator at
// its default settings serves Figure 1(a) to the snooper and refuses
// Figure 1(b): its release ledger runs the same attack on the combination
// and finds it too disclosive.
//
// Run: go run ./examples/clinical
package main

import (
	"errors"
	"fmt"
	"log"

	"privateiye/internal/attack"
	"privateiye/internal/clinical"
	"privateiye/internal/experiments"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/source"
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
	// The integrator holds the pooled matrix and serves each table as an
	// aggregate query; the mediator runs at its defaults. Its release
	// ledger remembers what the snooper was given and runs the same
	// attack on the combination before publishing the second table.
	med := integratorMediator()
	fmt.Println("The mediator's Privacy Control, at its default settings:")
	in, err := med.Query(perTestQuery, "hmo1")
	if err != nil {
		log.Fatalf("Figure 1(a) alone should be released: %v", err)
	}
	fmt.Printf("  Figure 1(a) for hmo1: released (%d per-test rows)\n", len(in.Result.Rows))
	_, err = med.Query(perHMOQuery, "hmo1")
	var cr *mediator.CombinationRefusal
	if !errors.As(err, &cr) {
		log.Fatalf("Figure 1(b) after 1(a) must be refused as ledger-combination, got %v", err)
	}
	fmt.Printf("  Figure 1(b) for hmo1: refused (combined disclosure %.3f >= %.2f)\n", cr.Disclosure, cr.Threshold)
	fmt.Println("\nThe framework detects and blocks exactly the breach the paper's Example 1 describes.")
}

const (
	perTestQuery = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
	perHMOQuery  = "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
)

// integratorMediator builds a mediator, at its defaults, over the
// integrator of Example 1: one source holding the four HMOs' pooled
// compliance rates, sharing them only as aggregates. The identity
// preservation registry keeps the aggregates exact, as published.
func integratorMediator() *mediator.Mediator {
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		log.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		log.Fatal(err)
	}
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		log.Fatal(err)
	}
	src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
	if err != nil {
		log.Fatal(err)
	}
	ep, err := source.NewLocal(src, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	med, err := mediator.New(mediator.Config{Endpoints: []source.Endpoint{ep}})
	if err != nil {
		log.Fatal(err)
	}
	return med
}
