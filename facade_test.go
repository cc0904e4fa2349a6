package privateiye_test

import (
	"context"
	"strings"
	"testing"

	"privateiye"
)

// The facade test drives the system exactly as a downstream user would:
// nothing from internal/ is imported here beyond what bench_test.go needs.
func facadeSystem(t *testing.T) *privateiye.System {
	t.Helper()
	g := privateiye.NewGenerator(99)
	cat := privateiye.NewCatalog()
	tab, err := g.Patients("patients", 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := privateiye.NewPolicy("clinicX", privateiye.Deny,
		privateiye.Rule{Item: "//patients/row/age", Purpose: "research", Form: privateiye.FormExact, Effect: privateiye.Allow, MaxLoss: 0.9},
		privateiye.Rule{Item: "//patients/row/diagnosis", Purpose: "research", Form: privateiye.FormAggregate, Effect: privateiye.Allow, MaxLoss: 0.5},
		privateiye.Rule{Item: "//patients/row/sex", Purpose: "research", Form: privateiye.FormAggregate, Effect: privateiye.Allow, MaxLoss: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := privateiye.NewSystem(privateiye.SystemConfig{
		Sources: []privateiye.SourceConfig{{Name: "clinicX", Catalog: cat, Policy: pol}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := facadeSystem(t)
	in, err := sys.Query(
		"FOR //patients/row WHERE //age > 50 RETURN //age ORDER BY age LIMIT 5 PURPOSE research MAXLOSS 0.9",
		"dr")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Result.Rows) == 0 || len(in.Result.Rows) > 5 {
		t.Errorf("rows = %d", len(in.Result.Rows))
	}
	if !sys.Schema().Has("/patients/row/age") {
		t.Error("schema missing age")
	}
	// Aggregate path via the facade.
	agg, err := sys.Query(
		"FOR //patients/row GROUP BY //sex RETURN COUNT(//diagnosis) AS n PURPOSE research MAXLOSS 0.9",
		"dr")
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Result.Rows) != 2 {
		t.Errorf("groups = %v", agg.Result.Rows)
	}
}

func TestFacadePolicyXMLAndQueryParsing(t *testing.T) {
	pol, err := privateiye.ParsePolicy(`
<policy owner="demo" default="deny">
  <rule item="//x" purpose="research" form="exact" effect="allow" maxloss="0.5"/>
</policy>`)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Owner != "demo" {
		t.Errorf("owner = %q", pol.Owner)
	}
	q, err := privateiye.ParseQuery("FOR //patient RETURN //age PURPOSE research")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "PURPOSE research") {
		t.Errorf("parsed = %s", q)
	}
	if _, err := privateiye.ParseQuery("not piql"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestFacadePrivateOverlap(t *testing.T) {
	doc := `<reg><p><name>ann</name></p><p><name>bo</name></p></reg>`
	mk := func(name, xml string) privateiye.SourceConfig {
		node, err := privateiye.ParseXML(xml)
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := privateiye.NewPolicy(name, privateiye.Allow)
		return privateiye.SourceConfig{Name: name, Docs: []*privateiye.XMLNode{node}, Policy: pol}
	}
	sys, err := privateiye.NewSystem(privateiye.SystemConfig{
		Sources: []privateiye.SourceConfig{
			mk("A", doc),
			mk("B", `<reg><p><name>bo</name></p><p><name>cy</name></p></reg>`),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.Mediator().Overlap(context.Background(), "A", "B", "name")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("overlap = %d, want 1", n)
	}
}

func TestFacadeRelationalConstruction(t *testing.T) {
	schema, err := privateiye.NewSchema(
		privateiye.Column{Name: "k", Type: privateiye.TString},
		privateiye.Column{Name: "v", Type: privateiye.TFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	tab := privateiye.NewTable("t", schema)
	if err := tab.Insert(privateiye.Row{privateiye.Str("a"), privateiye.Float(1.5)}); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Errorf("len = %d", tab.Len())
	}
	// Remaining facade constructors exist and return usable values.
	if privateiye.DefaultPurposes() == nil ||
		privateiye.NewAccessStore() == nil ||
		privateiye.NewPreserveRegistry() == nil ||
		privateiye.DefaultPreserveRegistry() == nil ||
		privateiye.ModPPSISuite() == nil {
		t.Error("facade constructor returned nil")
	}
	if _, err := privateiye.NewAuditLog(privateiye.AuditConfig{Population: 10}); err != nil {
		t.Errorf("audit log: %v", err)
	}
	if _, err := privateiye.NewPrivacyView("v", privateiye.ViewItem{Item: "//x"}); err != nil {
		t.Errorf("privacy view: %v", err)
	}
}
