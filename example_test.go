package privateiye_test

import (
	"fmt"
	"log"

	"privateiye"
)

// ExampleNewSystem assembles a one-source deployment and runs one
// privacy-checked query through the mediation engine.
func ExampleNewSystem() {
	doc, err := privateiye.ParseXML(`
<clinic>
  <patient><name>Ana</name><age>67</age></patient>
  <patient><name>Ben</name><age>59</age></patient>
</clinic>`)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := privateiye.NewPolicy("clinic", privateiye.Deny,
		privateiye.Rule{Item: "//patient/age", Purpose: "research",
			Form: privateiye.FormExact, Effect: privateiye.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := privateiye.NewSystem(privateiye.SystemConfig{
		Sources: []privateiye.SourceConfig{{
			Name:   "clinic",
			Docs:   []*privateiye.XMLNode{doc},
			Policy: pol,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	in, err := sys.Query("FOR //patient WHERE //age > 60 RETURN //age PURPOSE research MAXLOSS 0.9", "dr")
	if err != nil {
		log.Fatal(err)
	}
	// Age is a quasi-identifier, so the preservation stage released it as
	// a band rather than the point value.
	fmt.Println(in.Result.Columns[0], in.Result.Rows[0][0])
	// Output: age 60-69
}
