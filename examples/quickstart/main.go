// Quickstart: a two-source PRIVATE-IYE deployment in one process, written
// against ONLY the public privateiye package — the surface a downstream
// user has.
//
// Two hospitals hold patient registries with different privacy policies.
// A researcher integrates age distributions across both; identifiers never
// leave either source, and a purpose the policies don't cover is refused.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"privateiye"
)

func main() {
	sys, err := privateiye.NewSystem(privateiye.SystemConfig{
		Sources: []privateiye.SourceConfig{
			hospital("hospitalA", 1, 400),
			hospital("hospitalB", 2, 250),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("mediated schema paths:")
	for _, p := range sys.Schema().Paths() {
		fmt.Println("  ", p.Path)
	}

	// An allowed research query: ages of older patients, across both
	// hospitals, youngest-last, at most ten rows.
	in, err := sys.Query(
		"FOR //patients/row WHERE //age >= 65 RETURN //age, //sex "+
			"ORDER BY age DESC LIMIT 10 PURPOSE research MAXLOSS 0.8", "dr-lee")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresearch query answered by %v: %d rows (e.g. %v)\n",
		in.Answered, len(in.Result.Rows), in.Result.Rows[0])

	// Identifiers are refused everywhere: the query dies at both sources.
	_, err = sys.Query("FOR //patients/row RETURN //name, //id PURPOSE research", "dr-lee")
	fmt.Printf("\nasking for identifiers -> %v\n", err)

	// A purpose the policies don't grant is refused too.
	_, err = sys.Query("FOR //patients/row RETURN //age PURPOSE marketing", "ad-corp")
	fmt.Printf("asking for marketing    -> %v\n", err)
}

// hospital builds one source: a generated patient registry plus a policy
// that shares demographics for research and denies identifiers.
func hospital(name string, seed uint64, patients int) privateiye.SourceConfig {
	g := privateiye.NewGenerator(seed)
	cat := privateiye.NewCatalog()
	tab, err := g.Patients("patients", patients, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := cat.Add(tab); err != nil {
		log.Fatal(err)
	}
	pol, err := privateiye.NewPolicy(name, privateiye.Deny,
		privateiye.Rule{Item: "//patients/row/age", Purpose: "research", Form: privateiye.FormExact, Effect: privateiye.Allow, MaxLoss: 0.8},
		privateiye.Rule{Item: "//patients/row/sex", Purpose: "research", Form: privateiye.FormExact, Effect: privateiye.Allow, MaxLoss: 0.8},
		privateiye.Rule{Item: "//patients/row/name", Purpose: "any", Effect: privateiye.Deny},
		privateiye.Rule{Item: "//patients/row/id", Purpose: "any", Effect: privateiye.Deny},
	)
	if err != nil {
		log.Fatal(err)
	}
	view, err := privateiye.NewPrivacyView(name+"-private",
		privateiye.ViewItem{Item: "//patients/row/name", Sensitivity: privateiye.SensitivityHigh},
		privateiye.ViewItem{Item: "//patients/row/id", Sensitivity: privateiye.SensitivityHigh},
	)
	if err != nil {
		log.Fatal(err)
	}
	return privateiye.SourceConfig{Name: name, Catalog: cat, Policy: pol, View: view, Seed: seed}
}
