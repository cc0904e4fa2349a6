package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// E23Coalescing measures in-flight query coalescing: many identical
// concurrent queries from one requester share one pipeline execution,
// while every caller still lands in the query history. The coalesced
// and plain runs replay the same workload side by side, because the win
// is the ratio, not the absolute number.
func E23Coalescing(bursts, burstSize int) (*Table, error) {
	t := &Table{
		Title:  "E23: cross-query amortization — in-flight query coalescing",
		Header: []string{"scenario", "ops/s", "amortization", "speedup"},
	}

	// Four query texts that release equivalent information (all aggregate
	// by //diagnosis), so no combination is ever refused and the sweep
	// measures pure execution sharing. Indices are pre-sampled from a
	// seeded zipf so both runs replay the identical workload. The source
	// sits behind a fixed simulated network round-trip: coalescing pays
	// when the shared phase is dominated by waiting on autonomous remote
	// sources, which is the deployment the mediator is built for (a purely
	// in-process source finishes before a concurrent burst can even be
	// scheduled, so nothing would overlap).
	queries := []string{
		"FOR //patients/row GROUP BY //diagnosis RETURN AVG(//age) AS avg_age PURPOSE research MAXLOSS 0.9",
		"FOR //patients/row GROUP BY //diagnosis RETURN AVG(//age) AS mean_age PURPOSE research MAXLOSS 0.9",
		"FOR //patients/row GROUP BY //diagnosis RETURN COUNT(*) AS n PURPOSE research MAXLOSS 0.9",
		"FOR //patients/row GROUP BY //diagnosis RETURN AVG(//age) AS avg_age PURPOSE research MAXLOSS 0.8",
	}
	rng := rand.New(rand.NewSource(23))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(len(queries)-1))
	picks := make([][]int, bursts)
	for b := range picks {
		picks[b] = make([]int, burstSize)
		for i := range picks[b] {
			picks[b][i] = int(zipf.Uint64())
		}
	}
	issued := bursts * burstSize

	coalesceRun := func(coalesce bool) (qps float64, leaders, followers uint64, history int, err error) {
		reg := obs.NewRegistry()
		m, err := e23Mediator(coalesce, reg)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		start := time.Now()
		for _, burst := range picks {
			var wg sync.WaitGroup
			errc := make(chan error, len(burst))
			gate := make(chan struct{})
			for _, qi := range burst {
				wg.Add(1)
				go func(q string) {
					defer wg.Done()
					<-gate // start the burst together: overlap is the point
					if _, err := m.Query(q, "analyst"); err != nil {
						errc <- err
					}
				}(queries[qi])
			}
			close(gate)
			wg.Wait()
			close(errc)
			for err := range errc {
				return 0, 0, 0, 0, err
			}
		}
		elapsed := time.Since(start)
		leaders = reg.Counter("piye_mediator_coalesce_total", "role", "leader").Value()
		followers = reg.Counter("piye_mediator_coalesce_total", "role", "follower").Value()
		return float64(issued) / elapsed.Seconds(), leaders, followers, len(m.History()), nil
	}

	soloQPS, _, _, _, err := coalesceRun(false)
	if err != nil {
		return nil, err
	}
	coalQPS, leaders, followers, history, err := coalesceRun(true)
	if err != nil {
		return nil, err
	}
	// The invariant the whole feature stands on: execution is shared, the
	// audit trail is not. Every coalesced caller must still appear in the
	// query history.
	if history != issued {
		return nil, fmt.Errorf("experiments: E23 coalesced history has %d entries, want %d (per-caller audit lost)", history, issued)
	}
	hitRate := 0.0
	if leaders+followers > 0 {
		hitRate = float64(followers) / float64(leaders+followers) * 100
	}
	t.Rows = append(t.Rows,
		[]string{
			fmt.Sprintf("queries zipfian %dx%d bursts, coalesce off", bursts, burstSize),
			fmt.Sprintf("%.0f", soloQPS), "-", "1.00x",
		},
		[]string{
			fmt.Sprintf("queries zipfian %dx%d bursts, coalesce on", bursts, burstSize),
			fmt.Sprintf("%.0f", coalQPS),
			fmt.Sprintf("%.0f%% hit (%d lead, %d follow)", hitRate, leaders, followers),
			fmt.Sprintf("%.2fx", coalQPS/soloQPS),
		})

	t.Notes = append(t.Notes,
		fmt.Sprintf("coalesce: zipfian(s=1.5) over %d query texts, one requester, 2ms simulated source round-trip; history stayed complete at %d entries (per-caller audit preserved)", len(queries), issued))
	return t, nil
}

// e23Endpoint wraps a source endpoint with a fixed per-query delay,
// standing in for the network round-trip to an autonomous remote source.
type e23Endpoint struct {
	source.Endpoint
	delay time.Duration
}

func (e e23Endpoint) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	select {
	case <-time.After(e.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return e.Endpoint.Query(ctx, piqlText, requester)
}

// e23Mediator is the single-source deployment the coalescing sweep
// queries — a generated hospital dataset behind a simulated 2ms source
// round-trip — with coalescing and metrics as the only variables.
func e23Mediator(coalesce bool, reg *obs.Registry) (*mediator.Mediator, error) {
	tab, err := clinical.NewGenerator(23).Patients("patients", 4000, 4)
	if err != nil {
		return nil, err
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		return nil, err
	}
	pol, err := policy.NewPolicy("hospital", policy.Deny,
		policy.Rule{Item: "//patients//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		return nil, err
	}
	src, err := source.New(source.Config{Name: "hospital", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
	if err != nil {
		return nil, err
	}
	ep, err := source.NewLocal(src, []byte("e23"), psi.TestGroup())
	if err != nil {
		return nil, err
	}
	return mediator.New(mediator.Config{
		Endpoints:       []source.Endpoint{e23Endpoint{Endpoint: ep, delay: 2 * time.Millisecond}},
		MaxDisclosure:   0.9,
		LedgerTolerance: 0.05,
		PlanCache:       64,
		Coalesce:        coalesce,
		Obs:             reg,
	})
}
