// Benchmarks regenerating every table and figure of EXPERIMENTS.md — one
// benchmark (or benchmark group) per experiment E1–E16. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/piye-bench prints the corresponding human-readable tables.
package privateiye_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"privateiye/internal/anonymity"
	"privateiye/internal/attack"
	"privateiye/internal/audit"
	"privateiye/internal/clinical"
	"privateiye/internal/cluster"
	"privateiye/internal/core"
	"privateiye/internal/linkage"
	"privateiye/internal/mediator"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/schemamatch"
	"privateiye/internal/source"
	"privateiye/internal/stats"
)

// --- E1/E2: Figure 1(a)/(b) aggregate publication -----------------------

func BenchmarkFig1aAggregates(b *testing.B) {
	m := clinical.Figure1GroundTruth()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := clinical.PublishFromMatrix(m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1bAggregates(b *testing.B) {
	// Scaled variant: publishing aggregates for a 64x16 matrix.
	g := clinical.NewGenerator(1)
	m := g.ComplianceMatrix(64, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := clinical.PublishFromMatrix(m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3/E4/E15: Figure 1(d) inference attack ----------------------------

func fig1Knowledge() *attack.Knowledge {
	k := attack.FromPublished(clinical.Figure1Published(), 0, clinical.Figure1HMO1Row())
	k.Tolerance = 0.025
	return k
}

func BenchmarkFig1dInference(b *testing.B) {
	k := fig1Knowledge()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.Infer(attack.FastOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1dInferenceOutsider is the cost of the release ledger's
// combination check (E15): one outsider attack on the Figure 1 release
// pair at the full rounding band (the expensive path; the common
// no-combination path is a map lookup).
func BenchmarkFig1dInferenceOutsider(b *testing.B) {
	pub := clinical.Figure1Published()
	k := &attack.Knowledge{
		AttrMean:    pub.TestMean,
		AttrSigma:   pub.TestSigma,
		PartyMean:   pub.HMOMean,
		OwnIndex:    -1,
		Tolerance:   0.05,
		SampleSigma: true,
		Lo:          0,
		Hi:          100,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.Infer(attack.FastOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: rewrite-before-execute vs execute-then-filter ------------------

func e5Fixture(b *testing.B, n int) (*relational.Catalog, *policy.Policy, *policy.PurposeTree) {
	b.Helper()
	g := clinical.NewGenerator(uint64(n))
	cat := relational.NewCatalog()
	tab, err := g.Patients("p", n, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := cat.Add(tab); err != nil {
		b.Fatal(err)
	}
	pol, err := policy.NewPolicy("s", policy.Deny,
		policy.Rule{Item: "//p/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	return cat, pol, policy.DefaultPurposes()
}

func BenchmarkRewriteVsFilterRewrite(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			cat, _, _ := e5Fixture(b, n)
			q := &relational.Query{
				From:   "p",
				Where:  relational.Cmp{Op: relational.Gt, L: relational.ColRef{Name: "age"}, R: relational.Lit{V: relational.Int(80)}},
				Select: []string{"age"},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Execute(cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRewriteVsFilterPostFilter(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			cat, pol, purposes := e5Fixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				all, err := (&relational.Query{From: "p"}).Execute(cat)
				if err != nil {
					b.Fatal(err)
				}
				ageIdx := all.Schema.Index("age")
				count := 0
				for _, row := range all.Rows {
					d := pol.Decide(policy.Request{ItemPath: "/p/row/age", Purpose: "research", Form: policy.Exact}, purposes)
					if d.Allowed && row[ageIdx].I > 80 {
						count++
					}
				}
				_ = count
			}
		})
	}
}

// --- E6: cluster routing vs execute-and-analyze -------------------------

func BenchmarkClusterRoutingMap(b *testing.B) {
	train, err := cluster.SyntheticWorkload(210, 7)
	if err != nil {
		b.Fatal(err)
	}
	kb, err := cluster.BuildKMeans(train, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	q := train[0].Query
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := kb.Map(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterRoutingExecuteAndAnalyze(b *testing.B) {
	g := clinical.NewGenerator(3)
	tab, err := g.Patients("p", 1000, 4)
	if err != nil {
		b.Fatal(err)
	}
	doc := relational.TableToXML(tab)
	q := piql.MustParse("FOR //p/row WHERE //age >= 40 RETURN //name, //zip PURPOSE treatment")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Evaluate(doc, piql.EvalOptions{}); err != nil {
			b.Fatal(err)
		}
		_ = cluster.HeuristicBreach(q)
	}
}

// --- E7: k-anonymity ------------------------------------------------------

func e7Fixture(b *testing.B, n int) *piql.Result {
	b.Helper()
	g := clinical.NewGenerator(11)
	tab, err := g.Patients("p", n, 4)
	if err != nil {
		b.Fatal(err)
	}
	res := &piql.Result{Columns: []string{"age", "zip", "sex", "diagnosis"}}
	for _, row := range tab.Rows() {
		res.Rows = append(res.Rows, []string{
			row[3].String(), row[4].String(), row[2].String(), row[5].String(),
		})
	}
	return res
}

func e7Config(k int) anonymity.Config {
	return anonymity.Config{
		K: k,
		QIs: []anonymity.QuasiIdentifier{
			{Column: "age", Hierarchy: preserve.AgeHierarchy()},
			{Column: "zip", Hierarchy: preserve.ZipHierarchy()},
			{Column: "sex", Hierarchy: preserve.SexHierarchy()},
		},
		MaxSuppression: 0.05,
	}
}

func BenchmarkKAnonymitySamarati(b *testing.B) {
	for _, k := range []int{2, 10, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			res := e7Fixture(b, 2000)
			cfg := e7Config(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := anonymity.Samarati(res, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKAnonymityDatafly(b *testing.B) {
	res := e7Fixture(b, 2000)
	cfg := e7Config(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anonymity.Datafly(res, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: perturbation ----------------------------------------------------

func BenchmarkPerturbationNoise(b *testing.B) {
	res := e7Fixture(b, 10000)
	rng := stats.NewRand(9)
	tech := preserve.AdditiveNoise{Column: "age", Sigma: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tech.Apply(res, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: PSI and private linkage ------------------------------------------

func BenchmarkPSIIntersect(b *testing.B) {
	for _, n := range []int{100, 300} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pa, err := psi.NewParty(psi.X25519Suite(), rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			pb, err := psi.NewParty(psi.X25519Suite(), rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			var setA, setB []string
			for i := 0; i < n; i++ {
				setA = append(setA, fmt.Sprintf("a%d", i))
				setB = append(setB, fmt.Sprintf("b%d", i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := psi.Intersect(pa, pb, setA, setB); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLinkageMatch(b *testing.B) {
	enc, err := linkage.NewEncoder(1000, 20, 2, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	g := clinical.NewGenerator(5)
	var left, right []linkage.EncodedRecord
	for i := 0; i < 500; i++ {
		name := g.Name() + fmt.Sprint(i)
		left = append(left, enc.EncodeRecord(fmt.Sprintf("L%d", i), name))
		right = append(right, enc.EncodeRecord(fmt.Sprintf("R%d", i), g.CorruptName(name)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linkage.Match(left, right, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkageEncode(b *testing.B) {
	enc, err := linkage.NewEncoder(1000, 20, 2, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Encode("Jonathan Archibald Smith")
	}
}

// --- E10: hybrid warehousing ----------------------------------------------

func e10System(b *testing.B, capacity int) *core.System {
	b.Helper()
	g := clinical.NewGenerator(17)
	cat := relational.NewCatalog()
	tab, err := g.Patients("patients", 5000, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := cat.Add(tab); err != nil {
		b.Fatal(err)
	}
	pol, err := policy.NewPolicy("s", policy.Deny,
		policy.Rule{Item: "//patients/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Sources:  []source.Config{{Name: "s", Catalog: cat, Policy: pol}},
		Mediator: mediator.Config{WarehouseCapacity: capacity},
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkHybridWarehouseVirtual(b *testing.B) {
	sys := e10System(b, 0)
	const q = "FOR //patients/row WHERE //age > 60 RETURN //age PURPOSE research MAXLOSS 0.9"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(q, "r"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridWarehouseHot(b *testing.B) {
	sys := e10System(b, 16)
	const q = "FOR //patients/row WHERE //age > 60 RETURN //age PURPOSE research MAXLOSS 0.9"
	if _, err := sys.Query(q, "r"); err != nil { // warm the warehouse
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(q, "r"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: sequence auditing ------------------------------------------------

func BenchmarkAuditCheck(b *testing.B) {
	a, err := audit.NewAuditor(audit.Config{Population: 1000, MinSetSize: 5, MaxOverlap: 2, Exact: true})
	if err != nil {
		b.Fatal(err)
	}
	// Seed 50 answered queries.
	for i := 0; i < 50; i++ {
		set := []int{i * 3, i*3 + 1, i*3 + 2, i*3 + 3, i*3 + 4}
		for j := range set {
			set[j] %= 1000
		}
		_ = a.Commit(set)
	}
	probe := []int{900, 901, 902, 903, 904}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Check(probe)
	}
}

// --- E12: mediation ----------------------------------------------------------

func mediationSystem(b *testing.B, nSources int) *core.System {
	b.Helper()
	var cfgs []source.Config
	for i := 0; i < nSources; i++ {
		g := clinical.NewGenerator(uint64(i)*7 + 1)
		cat := relational.NewCatalog()
		tab, err := g.Patients("patients", 500, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := cat.Add(tab); err != nil {
			b.Fatal(err)
		}
		pol, err := policy.NewPolicy(fmt.Sprintf("s%d", i), policy.Deny,
			policy.Rule{Item: "//patients/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
		)
		if err != nil {
			b.Fatal(err)
		}
		cfgs = append(cfgs, source.Config{Name: fmt.Sprintf("s%d", i), Catalog: cat, Policy: pol, Seed: uint64(i)})
	}
	sys, err := core.NewSystem(core.SystemConfig{Sources: cfgs})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkFragmenterRouting(b *testing.B) {
	sys := mediationSystem(b, 8)
	const q = "FOR //patients/row WHERE //age > 60 RETURN //age PURPOSE research MAXLOSS 0.9"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(q, "r"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEnd(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			sys := mediationSystem(b, n)
			const q = "FOR //patients/row WHERE //age > 50 RETURN //age PURPOSE research MAXLOSS 0.9"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Query(q, "r"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E14: schema matching -----------------------------------------------------

func BenchmarkSchemaMatchPlaintext(b *testing.B) {
	m := schemamatch.NewMatcher()
	var left, right []schemamatch.FieldProfile
	for i := 0; i < 20; i++ {
		left = append(left, schemamatch.FieldProfile{Name: fmt.Sprintf("field_%d", i)})
		right = append(right, schemamatch.FieldProfile{Name: fmt.Sprintf("Field%d", i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(left, right)
	}
}

func BenchmarkSchemaMatchHashed(b *testing.B) {
	salt := []byte("bench")
	var names []string
	for i := 0; i < 20; i++ {
		names = append(names, fmt.Sprintf("field_%d", i))
	}
	left := schemamatch.HashVocabulary(salt, names)
	right := schemamatch.HashVocabulary(salt, names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schemamatch.MatchHashed(left, right)
	}
}

// --- PIQL kernel benchmarks (shared substrate) ------------------------------

func BenchmarkPIQLParse(b *testing.B) {
	const src = "FOR //patient WHERE //age >= 40 AND //diagnosis = 'diabetes' GROUP BY //sex RETURN AVG(//rate) AS r, COUNT(*) AS n PURPOSE research MAXLOSS 0.3"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := piql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIQLEvaluate(b *testing.B) {
	g := clinical.NewGenerator(3)
	tab, err := g.Patients("p", 1000, 4)
	if err != nil {
		b.Fatal(err)
	}
	doc := relational.TableToXML(tab)
	q := piql.MustParse("FOR //p/row WHERE //age >= 40 GROUP BY //sex RETURN COUNT(*) AS n, AVG(//age) AS a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Evaluate(doc, piql.EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E16: preservation placement kernels -------------------------------------

func BenchmarkPlacementGeneralizeLate(b *testing.B) {
	res := e7Fixture(b, 50000)
	gen := preserve.Generalize{Column: "zip", Hierarchy: preserve.ZipHierarchy(), Level: 2}
	// Filter first (selectivity ~13%), then generalize the survivors.
	filter := func(in *piql.Result) *piql.Result {
		out := &piql.Result{Columns: in.Columns}
		for _, r := range in.Rows {
			if r[0] > "80" { // string compare suffices for 2-digit ages
				out.Rows = append(out.Rows, r)
			}
		}
		return out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		small := filter(res)
		if _, err := gen.Apply(small, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementGeneralizeEarly(b *testing.B) {
	res := e7Fixture(b, 50000)
	gen := preserve.Generalize{Column: "zip", Hierarchy: preserve.ZipHierarchy(), Level: 2}
	filter := func(in *piql.Result) *piql.Result {
		out := &piql.Result{Columns: in.Columns}
		for _, r := range in.Rows {
			if r[0] > "80" {
				out.Rows = append(out.Rows, r)
			}
		}
		return out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		big, err := gen.Apply(res, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = filter(big)
	}
}
