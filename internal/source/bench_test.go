package source

// Benchmarks of the source pipeline as piye-source serves it — through
// Local.Query, plan cache, metrics and tracer on — over the tier
// benchmark's data: 500 generated patients plus the Figure 1 compliance
// table under the daemon's built-in policy. `make bench-quick` runs them
// so that planning or execution creeping back onto the hit path shows
// here, where it is a large share of the op, rather than behind the
// tier's HTTP hops.
//
//	go test -run '^$' -bench SourceExecute -benchmem ./internal/source/

import (
	"fmt"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/relational"
)

const (
	benchFig1a     = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
	benchSelection = "FOR //patients/row WHERE //age > 55 RETURN //age PURPOSE research MAXLOSS 0.9"

	// warmFig1aAllocBound caps a warm Local.Query of benchFig1a: measured
	// 4 (the plan's answer memo serves it), against 77 when every call
	// executes, preserves and tags, and 211 when every call re-plans.
	warmFig1aAllocBound = 10

	// warmSelectionAllocBound caps a warm Local.Query of benchSelection,
	// which executes, preserves and tags ~220 rows on every call:
	// measured 24, against 38 when the selection copied its rows as
	// relational Values before rendering them as text and Collapse sized
	// its output to its input, and 62 when every preservation step copied
	// the rows and the selection grew its filtered slice by doubling.
	warmSelectionAllocBound = 30
)

func benchSource(tb testing.TB, planCache int) *Source {
	tb.Helper()
	cat := relational.NewCatalog()
	patients, err := clinical.NewGenerator(1).Patients("patients", 500, 4)
	if err != nil {
		tb.Fatal(err)
	}
	comp, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		tb.Fatal(err)
	}
	for _, tab := range []*relational.Table{patients, comp} {
		if err := cat.Add(tab); err != nil {
			tb.Fatal(err)
		}
	}
	pol, err := policy.NewPolicy("bench", policy.Deny,
		policy.Rule{Item: "//row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7},
		policy.Rule{Item: "//row/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		policy.Rule{Item: "//row/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/id", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.8},
	)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := New(Config{
		Name: "bench", Catalog: cat, Policy: pol, Seed: 1, PlanCache: planCache,
		Obs: obs.NewRegistry(), Trace: obs.NewTracer(obs.DefaultTraceRing),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// benchExecute asks each query over and over, every op under a requester
// never seen before: the churn the tier's ledger_mix and cold_fanout
// workloads present.
func benchExecute(b *testing.B, planCache int) {
	for _, bc := range []struct{ name, text string }{
		{"fig1a", benchFig1a},
		{"selection", benchSelection},
	} {
		b.Run(bc.name, func(b *testing.B) {
			local, err := NewLocal(benchSource(b, planCache), []byte("salt"), nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := local.Query(bg, bc.text, "warm-up"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := local.Query(bg, bc.text, fmt.Sprintf("r%08x", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSourceExecuteWarm: the plan comes from the cache.
func BenchmarkSourceExecuteWarm(b *testing.B) { benchExecute(b, 256) }

// BenchmarkSourceExecuteColdPlan: no cache, every op re-plans — what a
// hit saves, and what Warm regresses to if the key stops matching.
func BenchmarkSourceExecuteColdPlan(b *testing.B) { benchExecute(b, 0) }

// BenchmarkSourceExecuteMemoMiss: the Figure 1a plan comes from the
// cache, but an Insert into the compliance table before each op (outside
// the timer) outdates the plan's answer memo, so every op executes,
// preserves and tags — the path Warm's fig1a skips. The table grows by
// one row per op, each a copy of its first.
func BenchmarkSourceExecuteMemoMiss(b *testing.B) {
	src := benchSource(b, 256)
	local, err := NewLocal(src, []byte("salt"), nil)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := src.cfg.Catalog.Table("compliance")
	if err != nil {
		b.Fatal(err)
	}
	row := comp.Rows()[0]
	if _, err := local.Query(bg, benchFig1a, "warm-up"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := comp.Insert(row); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := local.Query(bg, benchFig1a, fmt.Sprintf("r%08x", i)); err != nil {
			b.Fatal(err)
		}
	}
}
