package anonymity

import (
	"testing"

	"privateiye/internal/piql"
	"privateiye/internal/preserve"
)

func TestTechniqueIntegratesWithRegistry(t *testing.T) {
	res := patientResult(t, 300)
	tech := Technique{Cfg: standardConfig(5)}
	out, err := tech.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, min, err := Verify(out, qiCols(), 5)
	if err != nil || !ok {
		t.Fatalf("technique output not 5-anonymous: min %d, %v", min, err)
	}
	// Routed through a registry like any other technique.
	reg := preserve.NewRegistry()
	reg.Register(preserve.BreachIdentity, tech)
	via, err := reg.For(preserve.BreachIdentity).Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(via.Rows) != len(out.Rows) {
		t.Errorf("registry routing changed the result: %d vs %d rows", len(via.Rows), len(out.Rows))
	}
	// Samarati variant also certifies.
	sam := Technique{Cfg: standardConfig(5), UseSamarati: true}
	if out, err := sam.Apply(res, nil); err != nil {
		t.Fatal(err)
	} else if ok, _, _ := Verify(out, qiCols(), 5); !ok {
		t.Error("samarati variant not anonymous")
	}
	if tech.Name() != "kanonymize(k=5,datafly)" || sam.Name() != "kanonymize(k=5,samarati)" {
		t.Errorf("names: %q %q", tech.Name(), sam.Name())
	}
}

func TestTechniqueEdgeCases(t *testing.T) {
	tech := Technique{Cfg: standardConfig(5)}
	// No QI columns present: pass-through copy.
	res := &piql.Result{Columns: []string{"rate"}, Rows: [][]string{{"70"}, {"80"}}}
	out, err := tech.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Rows[0][0] != "70" {
		t.Errorf("pass-through = %v", out.Rows)
	}
	out.Rows[0][0] = "tamper"
	if res.Rows[0][0] == "tamper" {
		t.Error("pass-through must copy")
	}
	// Fewer rows than k: everything suppressed, not an error.
	tiny := &piql.Result{Columns: []string{"age", "zip", "sex"}, Rows: [][]string{{"40", "15213", "F"}}}
	out, err = tech.Apply(tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 0 {
		t.Errorf("undersized input should suppress all rows: %v", out.Rows)
	}
	// Empty input passes through.
	empty := &piql.Result{Columns: []string{"age", "zip", "sex"}}
	if out, err := tech.Apply(empty, nil); err != nil || len(out.Rows) != 0 {
		t.Errorf("empty: %v %v", out, err)
	}
}
