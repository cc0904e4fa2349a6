// Disease outbreak control — the paper's Example 2, end to end.
//
// Regional health authorities each hold a syndromic surveillance stream.
// None will centralize raw data, but all share case counts for the
// public-health purpose under their policies. The mediation engine
// integrates the streams in hybrid mode (warehousing hot queries, as the
// paper prescribes for emergencies), detects the region whose respiratory
// counts are growing, and uses private set intersection to count patients
// two jurisdictions share — without either revealing its registry.
//
// Run: go run ./examples/outbreak
package main

import (
	"context"

	"fmt"
	"log"
	"strconv"

	"privateiye"
	"privateiye/internal/clinical"
	"privateiye/internal/policy"
	"privateiye/internal/relational"
	"privateiye/internal/xmltree"
)

func main() {
	const days = 40
	// Three authorities: each holds the full day range for its own
	// regions (the generator spreads regions evenly).
	var cfgs []privateiye.SourceConfig
	for i := 0; i < 3; i++ {
		cfgs = append(cfgs, authority(fmt.Sprintf("authority%d", i+1), uint64(i+1), days))
	}
	// Two of them also hold patient registries with overlapping cases.
	regA, regB := registry("authority1-reg", 1), registry("authority2-reg", 1)

	sys, err := privateiye.NewSystem(privateiye.SystemConfig{
		Sources:  append(cfgs, regA, regB),
		Mediator: privateiye.MediatorConfig{WarehouseCapacity: 32, WarehouseTTL: 1000},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Surveillance: total respiratory cases per region over the last 10
	// days, integrated across every authority.
	q := fmt.Sprintf("FOR //events/row WHERE //syndrome = 'respiratory' AND //day >= %d "+
		"GROUP BY //region RETURN SUM(//cases) AS total, COUNT(*) AS n "+
		"PURPOSE outbreak-control MAXLOSS 0.5", days-10)
	in, err := sys.Query(q, "who-surveillance")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("respiratory case totals, last 10 days (from %v):\n", in.Answered)
	worstRegion, worst := "", -1.0
	for _, row := range in.Result.Rows {
		total, _ := strconv.ParseFloat(row[1], 64)
		fmt.Printf("  %-14s %6.0f\n", row[0], total)
		if total > worst {
			worst, worstRegion = total, row[0]
		}
	}
	fmt.Printf("\n-> outbreak signal strongest in %s\n", worstRegion)

	// The same query again is served from the warehouse: the paper's
	// quick-response requirement during emergencies.
	again, err := sys.Query(q, "who-surveillance")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat query served from warehouse: %v\n", again.FromWarehouse)

	// Private overlap: how many patients do the two registries share?
	eps := sys.Endpoints()
	n, err := sys.Mediator().Overlap(context.Background(), eps[3].Name(), eps[4].Name(), "name")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npatients shared by %s and %s (computed by PSI, no names revealed): %d\n",
		eps[3].Name(), eps[4].Name(), n)
}

// authority builds one surveillance source with a policy that shares
// event data exactly, but only for public-health purposes.
func authority(name string, seed uint64, days int) privateiye.SourceConfig {
	g := clinical.NewGenerator(seed)
	cat := relational.NewCatalog()
	tab, err := g.Outbreak("events", days)
	if err != nil {
		log.Fatal(err)
	}
	if err := cat.Add(tab); err != nil {
		log.Fatal(err)
	}
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//events//*", Purpose: "public-health", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		log.Fatal(err)
	}
	return privateiye.SourceConfig{Name: name, Catalog: cat, Policy: pol, Seed: seed}
}

// registry builds an XML patient registry; the same generator seed at two
// registries yields a real overlap for the PSI demonstration.
func registry(name string, seed uint64) privateiye.SourceConfig {
	g := clinical.NewGenerator(seed)
	root := xmltree.NewElem("registry")
	for i := 0; i < 30; i++ {
		root.Append(xmltree.NewElem("patient").Append(
			xmltree.NewText("name", g.Name()),
		))
	}
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//patient/name", Purpose: "outbreak-control", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.3},
	)
	if err != nil {
		log.Fatal(err)
	}
	return privateiye.SourceConfig{Name: name, Docs: []*xmltree.Node{root}, Policy: pol, Seed: seed}
}
