package experiments

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"time"

	"privateiye/internal/attack"
	"privateiye/internal/clinical"
	"privateiye/internal/core"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// E19Parallelism measures the hot-path optimizations: worker-pool
// speedup of the PSI and NLP kernels, the warm-round payoff of the PSI
// blind precomputation table, and the mediator plan cache. The NLP sweep
// doubles as a determinism check — intervals must be bit-identical at
// every worker count, or the parallel solver is not the serial solver.
//
// Parallel speedup is bounded by the machine: on a single-CPU box the
// worker sweep shows overhead, not speedup, while the precomputation
// and cache rows (which remove work instead of spreading it) still pay.
// The NumCPU note records which regime produced the numbers.
func E19Parallelism(items int, workerCounts []int, cacheQueries int) (*Table, error) {
	t := &Table{
		Title:  "E19: hot-path parallelism and caching (worker sweep, PSI precomputation, plan cache)",
		Header: []string{"kernel", "config", "time", "vs serial", "check"},
	}

	// --- PSI blind + exponentiate worker sweep -------------------------
	g := psi.TestGroup()
	own := make([]string, items)
	for i := range own {
		own[i] = fmt.Sprintf("patient-%d", i)
	}
	// A fixed peer party supplies the elements ExponentiateBatch works on.
	peerParty, err := psi.NewParty(psi.ModPSuite(g), rand.Reader)
	if err != nil {
		return nil, err
	}
	peerElems := peerParty.BlindBatch(own)

	var serialPSI time.Duration
	for _, w := range workerCounts {
		p, err := psi.NewParty(psi.ModPSuite(g), rand.Reader)
		if err != nil {
			return nil, err
		}
		p.SetWorkers(w)
		start := time.Now()
		_ = p.BlindBatch(own)
		if _, err := p.ExponentiateBatch(peerElems); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if w == 1 {
			serialPSI = d
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("psi blind+exp (%d items)", items),
			fmt.Sprintf("%d workers", w), ms(d), speedup(serialPSI, d), "",
		})
	}

	// --- PSI blind precomputation table (warm repeated round) ----------
	{
		p, err := psi.NewParty(psi.ModPSuite(g), rand.Reader)
		if err != nil {
			return nil, err
		}
		p.SetWorkers(1)
		start := time.Now()
		cold := p.BlindBatch(own)
		dCold := time.Since(start)
		start = time.Now()
		warm := p.BlindBatch(own)
		dWarm := time.Since(start)
		check := "identical"
		for i := range cold {
			if !psi.ModPSuite(g).Equal(cold[i], warm[i]) {
				check = "MISMATCH"
			}
		}
		t.Rows = append(t.Rows,
			[]string{fmt.Sprintf("psi blind (%d items)", items), "cold round", ms(dCold), "1.00x", ""},
			[]string{fmt.Sprintf("psi blind (%d items)", items), "warm round (precomputed)", ms(dWarm), speedup(dCold, dWarm), check})
	}

	// --- NLP multi-start worker sweep (Figure 1 attack) ----------------
	k := attack.FromPublished(clinical.Figure1Published(), 0, clinical.Figure1HMO1Row())
	k.Tolerance = 0.025
	var serialNLP time.Duration
	var serialInf *attack.Inference
	for _, w := range workerCounts {
		opt := attack.FastOptions()
		opt.Workers = w
		start := time.Now()
		inf, err := k.Infer(opt)
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		check := ""
		if w == 1 {
			serialNLP, serialInf = d, inf
		} else {
			check = "intervals identical"
			for h := range inf.Intervals {
				for a := range inf.Intervals[h] {
					if inf.Intervals[h][a] != serialInf.Intervals[h][a] {
						check = "INTERVAL MISMATCH"
					}
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			"nlp multistart (fig 1d)",
			fmt.Sprintf("%d workers", w), ms(d), speedup(serialNLP, d), check,
		})
	}

	// --- Mediator plan cache: cold vs warm -----------------------------
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		return nil, err
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		return nil, err
	}
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9})
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Sources: []source.Config{{
			Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry(),
		}},
		PSIGroup:  psi.TestGroup(),
		PlanCache: 256,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	const q = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	start := time.Now()
	if _, err := sys.Query(q, "analyst"); err != nil {
		return nil, err
	}
	dCold := time.Since(start)
	start = time.Now()
	for i := 0; i < cacheQueries; i++ {
		if _, err := sys.Query(q, "analyst"); err != nil {
			return nil, err
		}
	}
	dWarm := time.Since(start) / time.Duration(max(cacheQueries, 1))
	hits, misses, _ := sys.Mediator().PlanCacheStats()
	if hits == 0 {
		return nil, fmt.Errorf("experiments: E19 warm queries produced no plan-cache hits (misses %d)", misses)
	}
	t.Rows = append(t.Rows,
		[]string{"mediated query", "cold plan cache", ms(dCold), "1.00x", ""},
		[]string{"mediated query", fmt.Sprintf("warm plan cache (avg of %d)", cacheQueries), ms(dWarm), speedup(dCold, dWarm),
			fmt.Sprintf("hits=%d misses=%d", hits, misses)})

	t.Notes = append(t.Notes,
		fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d; parallel speedup is bounded by available CPUs", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"warm psi round reuses the fixed-secret precomputation table; warm queries reuse the cached parse",
		"every warm/parallel row is checked against its serial counterpart; privacy controls run on cached plans too (see E15)")
	return t, nil
}

// speedup renders base/d as a multiplier.
func speedup(base, d time.Duration) string {
	if d <= 0 || base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(d))
}
