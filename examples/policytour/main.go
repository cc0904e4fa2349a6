// Policy tour: the paper's three declarative languages plus classical
// access control, demonstrated on one source.
//
//  1. The source policy language: what the organization shares, for which
//     purposes, in which forms (exact / range / aggregate), with which
//     loss budgets.
//  2. The privacy-view language: what counts as private at all, which
//     drives redaction of the schema the mediator sees.
//  3. The user-preference language: a data subject tightening what the
//     source policy would otherwise allow — registered at runtime, XML on
//     the wire.
//
// Plus RBAC + multi-level security, the layer the paper positions privacy
// *beyond*: access control decides who may ask; the privacy machinery
// decides what any authorized answer may reveal.
//
// Run: go run ./examples/policytour
package main

import (
	"fmt"
	"log"

	"privateiye"
)

func main() {
	// --- Language 1: the source policy. ---
	pol, err := privateiye.NewPolicy("cityhospital", privateiye.Deny,
		// Demographics: exact for any research descendant, generous budget.
		privateiye.Rule{Item: "//patient/age", Purpose: "research", Form: privateiye.FormExact, Effect: privateiye.Allow, MaxLoss: 0.8},
		// Zip codes: ranges only — enough for geography, not for linkage.
		privateiye.Rule{Item: "//patient/zip", Purpose: "research", Form: privateiye.FormRange, Effect: privateiye.Allow, MaxLoss: 0.5},
		// Diagnoses: aggregate only, tight budget.
		privateiye.Rule{Item: "//patient/diagnosis", Purpose: "epidemiology", Form: privateiye.FormAggregate, Effect: privateiye.Allow, MaxLoss: 0.3},
		// Treatment staff see names exactly.
		privateiye.Rule{Item: "//patient/name", Purpose: "treatment", Form: privateiye.FormExact, Effect: privateiye.Allow, MaxLoss: 0.9},
		// Nothing, ever, from the ssn.
		privateiye.Rule{Item: "//patient/ssn", Purpose: "any", Effect: privateiye.Deny},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("source policy (XML wire form):")
	fmt.Println(pol.ToNode())

	// --- Language 2: the privacy view. ---
	view, err := privateiye.NewPrivacyView("cityhospital-private",
		privateiye.ViewItem{Item: "//patient/name", Sensitivity: privateiye.SensitivityHigh},
		privateiye.ViewItem{Item: "//patient/ssn", Sensitivity: privateiye.SensitivityHigh},
		privateiye.ViewItem{Item: "//patient/diagnosis", Sensitivity: privateiye.SensitivityMedium},
	)
	if err != nil {
		log.Fatal(err)
	}

	// --- Access control: who may even ask. ---
	access := privateiye.NewAccessStore()
	if err := access.RBAC.Grant("researcher", privateiye.ActionRead, "//patient//*"); err != nil {
		log.Fatal(err)
	}
	access.RBAC.Assign("dr-lee", "researcher")
	// ssn is secret even for readers with a role.
	if err := access.MLS.Classify("//patient/ssn", privateiye.LevelSecret); err != nil {
		log.Fatal(err)
	}
	access.MLS.SetClearance("dr-lee", privateiye.LevelConfidential)

	// --- The source, with demo patients. ---
	doc, err := privateiye.ParseXML(`
<clinic>
  <patient><name>Ana Ito</name><ssn>111</ssn><age>67</age><zip>15213</zip><diagnosis>diabetes</diagnosis></patient>
  <patient><name>Ben Ochs</name><ssn>222</ssn><age>59</age><zip>15217</zip><diagnosis>asthma</diagnosis></patient>
  <patient><name>Cai Wu</name><ssn>333</ssn><age>71</age><zip>15213</zip><diagnosis>diabetes</diagnosis></patient>
</clinic>`)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := privateiye.NewSystem(privateiye.SystemConfig{
		Sources: []privateiye.SourceConfig{{
			Name:   "cityhospital",
			Docs:   []*privateiye.XMLNode{doc},
			Policy: pol,
			View:   view,
			Access: access,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The view redacted the schema: the mediator never saw name/ssn paths.
	fmt.Println("mediated schema (name, ssn and diagnosis redacted by the privacy view):")
	for _, p := range sys.Schema().Paths() {
		fmt.Println("  ", p.Path)
	}

	show := func(label, q, who string) {
		in, err := sys.Query(q, who)
		if err != nil {
			fmt.Printf("%-34s -> refused: %v\n", label, shorten(err.Error()))
			return
		}
		fmt.Printf("%-34s -> %v\n", label, in.Result.Rows)
	}
	fmt.Println()
	show("ages for research (dr-lee)",
		"FOR //patient RETURN //age ORDER BY age PURPOSE research MAXLOSS 0.9", "dr-lee")
	show("ages for research (stranger)",
		"FOR //patient RETURN //age PURPOSE research MAXLOSS 0.9", "stranger")
	show("ssn for treatment (dr-lee)",
		"FOR //patient RETURN //ssn PURPOSE treatment", "dr-lee")
	show("diagnosis counts (epidemiology)",
		"FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n PURPOSE epidemiology MAXLOSS 0.9", "dr-lee")

	// --- Language 3: a data subject's preference arrives. ---
	pref, err := privateiye.ParsePolicy(`
<policy owner="patient-ana" default="allow">
  <rule item="//patient/age" purpose="research" effect="deny"/>
</policy>`)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Locals()[0].Src.AddPreference(pref); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npatient-ana registers a preference denying research use of age...")
	show("ages for research (dr-lee)",
		"FOR //patient RETURN //age PURPOSE research MAXLOSS 0.9", "dr-lee")
}

func shorten(s string) string {
	if len(s) > 100 {
		return s[:100] + "…"
	}
	return s
}
