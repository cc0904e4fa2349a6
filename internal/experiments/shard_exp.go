package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"privateiye/internal/admission"
	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
)

// e24Concurrency is the per-shard admission ceiling the sweep pins.
// Sharding pays when each shard's capacity is bounded — here by slots
// over a simulated remote-source round-trip — so adding shards adds
// slots. The ceiling is deliberately small so a modest client pool can
// saturate four shards.
const e24Concurrency = 4

// e24Delay stands in for the network round-trip to an autonomous
// source, the dominant per-query cost in the deployment the paper
// targets.
const e24Delay = 2 * time.Millisecond

const e24Query = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"

// e24Transport pools enough connections that neither the clients nor
// the router's outbound hop throttle the sweep on connection churn.
func e24Transport() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 128,
		},
	}
}

// e24Shard builds one mediator shard: the Figure 1 compliance source
// behind the simulated round-trip, a pinned admission ceiling (AIMD
// off: min = max), a queue deep enough that the closed-loop clients
// wait rather than shed, and the ownership gate for its tier.
func e24Shard(id string, peers []string, queue int) (*httptest.Server, *mediator.Mediator, error) {
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		return nil, nil, err
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		return nil, nil, err
	}
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9})
	if err != nil {
		return nil, nil, err
	}
	src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
	if err != nil {
		return nil, nil, err
	}
	ep, err := source.NewLocal(src, []byte("e24"), psi.TestGroup())
	if err != nil {
		return nil, nil, err
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:       []source.Endpoint{e23Endpoint{Endpoint: ep, delay: e24Delay}},
		MaxDisclosure:   0.9,
		LedgerTolerance: 0.05,
		PlanCache:       256,
		Admission: &admission.Config{
			MaxConcurrent: e24Concurrency,
			MinConcurrent: e24Concurrency,
			QueueCapacity: queue,
		},
		Shard: &mediator.ShardConfig{ID: id, Peers: peers, Seed: shard.DefaultSeed},
	})
	if err != nil {
		return nil, nil, err
	}
	return httptest.NewServer(mediator.NewHandler(med)), med, nil
}

// e24ClosedLoop drives the tier with a closed-loop client pool: each
// client posts its queries back to back, every query under a fresh
// requester so placement spreads across the ring, every ledger is
// fresh, and nothing is served from a cache. Returns queries/sec.
func e24ClosedLoop(base string, clients, queriesPer int) (float64, error) {
	httpc := e24Transport()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	// One untimed warm query per client first: connection setup and
	// cold plan caches belong to deployment, not to steady-state
	// throughput, and at quick-mode sweep lengths they would dominate.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, _, err := e24Post(httpc, base, fmt.Sprintf("warm-%02d", c)); err != nil {
				errc <- err
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < queriesPer; q++ {
				code, body, err := e24Post(httpc, base, fmt.Sprintf("client-%02d-q%04d", c, q))
				if err != nil {
					errc <- err
					return
				}
				if code != http.StatusOK {
					errc <- fmt.Errorf("query answered %d: %s", code, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		return 0, err
	}
	return float64(clients*queriesPer) / elapsed.Seconds(), nil
}

func e24Post(httpc *http.Client, base, requester string) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/query", strings.NewReader(e24Query))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("X-Requester", requester)
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b := make([]byte, 512)
	n, _ := resp.Body.Read(b)
	return resp.StatusCode, string(b[:n]), nil
}

// E24RouterScaling measures what sharding the mediator tier buys: the
// same capacity-bounded shard deployed 1/2/4 wide behind piye-router,
// driven by the same closed-loop client pool. Each shard's throughput
// is bounded by its admission slots over the simulated source
// round-trip, so the tier's throughput should scale with the shard
// count until the clients saturate. The experiment hard-fails if 4
// shards do not reach at least 2.5x the single-shard throughput — a
// routing tier that cannot scale is not worth its hop.
func E24RouterScaling(clients, queriesPerClient int, shardCounts []int) (*Table, error) {
	t := &Table{
		Title:  "E24: sharded mediator tier — requester-sticky routing throughput",
		Header: []string{"shards", "clients", "queries", "qps", "speedup"},
	}

	queue := 4 * clients // deep enough that overload queues, never sheds

	runTier := func(n int) (float64, error) {
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("shard-%d", i)
		}
		var backends []shard.Backend
		var closers []func()
		defer func() {
			for _, c := range closers {
				c()
			}
		}()
		for _, id := range peers {
			srv, med, err := e24Shard(id, peers, queue)
			if err != nil {
				return 0, err
			}
			closers = append(closers, srv.Close, func() { med.Close() })
			backends = append(backends, shard.Backend{Name: id, URL: srv.URL})
		}
		rt, err := shard.NewRouter(shard.RouterConfig{
			Shards:         backends,
			Seed:           shard.DefaultSeed,
			Retry:          resilience.Policy{MaxAttempts: 1},
			DisableBreaker: true,
			Client:         e24Transport(),
		})
		if err != nil {
			return 0, err
		}
		closers = append(closers, rt.Close)
		rtSrv := httptest.NewServer(rt.Handler())
		closers = append(closers, rtSrv.Close)
		return e24ClosedLoop(rtSrv.URL, clients, queriesPerClient)
	}

	var base float64
	speedupAt := map[int]float64{}
	for i, n := range shardCounts {
		qps, err := runTier(n)
		if err != nil {
			return nil, fmt.Errorf("experiments: E24 at %d shards: %w", n, err)
		}
		if i == 0 {
			base = qps
		}
		speedup := qps / base
		speedupAt[n] = speedup
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", clients*queriesPerClient),
			fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.2fx", speedup),
		})
	}

	// Router overhead, measured where it is visible: a single sequential
	// client, so the admission ceiling is idle and the extra hop is the
	// only difference between direct and routed.
	directNs, routedNs, err := e24Overhead(200)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"1 (router overhead)", "1", "200",
		"-",
		fmt.Sprintf("direct %s vs routed %s per query (%+.1f%%)",
			nsStr(directNs), nsStr(routedNs), (routedNs-directNs)/directNs*100),
	})

	t.Notes = append(t.Notes,
		fmt.Sprintf("per-shard admission ceiling %d over a %s simulated source round-trip; fresh requester per query (no warehouse, no coalescing, fresh ledgers)", e24Concurrency, e24Delay),
		"closed-loop clients: each issues its next query only after the previous answer; speedup is against the single-shard row",
		"acceptance: ≥2.5x at 4 shards — the tier must buy real capacity, not just a hop")

	if s, measured := speedupAt[4]; measured && len(shardCounts) > 1 && s < 2.5 {
		return nil, fmt.Errorf("experiments: E24 speedup at 4 shards is %.2fx, want >= 2.5x (routing tier failed its acceptance bar)", s)
	}
	return t, nil
}

// e24Overhead times one sequential client against a single shard,
// direct vs through the router. Returns ns/query for each.
func e24Overhead(queries int) (directNs, routedNs float64, err error) {
	srv, med, err := e24Shard("shard-0", []string{"shard-0"}, 8)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	defer med.Close()
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards:         []shard.Backend{{Name: "shard-0", URL: srv.URL}},
		Seed:           shard.DefaultSeed,
		Retry:          resilience.Policy{MaxAttempts: 1},
		DisableBreaker: true,
		Client:         e24Transport(),
	})
	if err != nil {
		return 0, 0, err
	}
	defer rt.Close()
	rtSrv := httptest.NewServer(rt.Handler())
	defer rtSrv.Close()

	httpc := e24Transport()
	run := func(base, prefix string) (float64, error) {
		start := time.Now()
		for q := 0; q < queries; q++ {
			code, body, err := e24Post(httpc, base, fmt.Sprintf("%s-%04d", prefix, q))
			if err != nil {
				return 0, err
			}
			if code != http.StatusOK {
				return 0, fmt.Errorf("overhead probe answered %d: %s", code, body)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(queries), nil
	}
	if directNs, err = run(srv.URL, "direct"); err != nil {
		return 0, 0, fmt.Errorf("experiments: E24 direct: %w", err)
	}
	if routedNs, err = run(rtSrv.URL, "routed"); err != nil {
		return 0, 0, fmt.Errorf("experiments: E24 routed: %w", err)
	}
	return directNs, routedNs, nil
}
