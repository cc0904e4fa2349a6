package experiments

import (
	"fmt"

	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// E15ReleaseLedger plays the paper's Figure 1 as a *query sequence*
// against the mediation engine: first the per-test statistics (Figure
// 1(a)), then the per-HMO means (Figure 1(b)). Each query is individually
// authorized; the ledger must refuse the pair for the snooper while an
// unrelated requester stays unaffected — the paper's two-level
// enforcement argument, measured.
func E15ReleaseLedger() (*Table, error) {
	build := func(threshold float64) (*mediator.Mediator, error) {
		tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
		if err != nil {
			return nil, err
		}
		cat := relational.NewCatalog()
		if err := cat.Add(tab); err != nil {
			return nil, err
		}
		pol, err := policy.NewPolicy("integrator", policy.Deny,
			policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
		)
		if err != nil {
			return nil, err
		}
		src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
		if err != nil {
			return nil, err
		}
		ep, err := source.NewLocal(src, nil, nil)
		if err != nil {
			return nil, err
		}
		return mediator.New(mediator.Config{
			Endpoints:     []source.Endpoint{ep},
			MaxDisclosure: threshold,
		})
	}
	const (
		q1 = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
		q2 = "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	)
	t := &Table{
		Title:  "E15: release ledger vs the Figure 1 query pair (two-level enforcement)",
		Header: []string{"threshold", "Fig1(a) release", "Fig1(b) release (same requester)", "Fig1(b) (other requester)"},
	}
	for _, threshold := range []float64{0.9, 1.0} {
		m, err := build(threshold)
		if err != nil {
			return nil, err
		}
		verdict := func(err error) string {
			if err != nil {
				return "REFUSED"
			}
			return "granted"
		}
		_, err1 := m.Query(q1, "snooper")
		_, err2 := m.Query(q2, "snooper")
		_, err3 := m.Query(q2, "bystander")
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", threshold), verdict(err1), verdict(err2), verdict(err3),
		})
		if threshold == 0.9 {
			if err1 != nil || err2 == nil || err3 != nil {
				return nil, fmt.Errorf("experiments: E15 shape wrong: %v / %v / %v", err1, err2, err3)
			}
		}
	}
	t.Notes = append(t.Notes,
		"each query passed the source's own checks; only the mediator's ledger sees the combination")
	return t, nil
}
