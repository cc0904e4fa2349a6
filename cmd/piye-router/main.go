// Command piye-router fronts a sharded mediator tier: it terminates
// /query, hashes the requester onto a seeded rendezvous ring, and
// proxies to the owning shard with per-shard circuit breakers, retries
// that honor Retry-After, and health-gated membership via each shard's
// /readyz. Refusal semantics survive the hop: a 403 privacy refusal
// stays 403 verbatim, capacity sheds keep their 429/503 + Retry-After,
// and a draining shard's new requesters are re-routed to the
// drain-adjusted owner. The router keeps no drain state: a re-route
// asserts only the shards that refused that query, and
// /shards/drain|undrain are plain forwards to the shard. Read a shard's
// drain state from its own GET /shard/status.
//
// Usage:
//
//	piye-router -addr :7200 \
//	    -shard shard-a=http://localhost:7100 \
//	    -shard shard-b=http://localhost:7110 \
//	    -shard shard-c=http://localhost:7120
//
// The -shard names and -seed must match every mediator's
// -shard-id/-shard-peers/-shard-seed, or the shards' ownership gates
// will refuse traffic the router believed well-placed.
//
// Endpoints: POST /query (PIQL body, X-Requester header), GET /shards
// (health and breaker per shard), POST /shards/drain?name=X,
// POST /shards/undrain?name=X[&force=1], /healthz,
// /readyz, /metrics, /debug/trace.
package main

import (
	"flag"
	"log"
	"time"

	"privateiye/cmd/internal/daemon"
	"privateiye/internal/obs"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
)

func main() {
	addr := flag.String("addr", ":7200", "listen address")
	var shards daemon.NameURLs
	flag.Var(&shards, "shard", "shard as name=url (repeatable; names must match the mediators' -shard-id values)")
	seed := flag.Uint64("seed", shard.DefaultSeed, "ring placement seed (must match every shard's -shard-seed)")
	retries := flag.Int("retries", 3, "attempts per proxied query (1 = no retry); retries honor the shard's Retry-After")
	proxyTimeout := flag.Duration("proxy-timeout", 30*time.Second, "overall deadline per proxied query across retries")
	brkFailures := flag.Int("breaker-failures", 5, "consecutive failures before a shard's circuit opens (0 = breaker off)")
	brkCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open circuit waits before a half-open probe")
	healthEvery := flag.Duration("health-every", time.Second, "per-shard /readyz polling period (0 = no health gating)")
	traceRing := flag.Int("trace-ring", obs.DefaultTraceRing, "finished per-query traces kept for /debug/trace (0 = tracing off)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /metrics, /debug/trace and /debug/pprof (empty = pprof off; /metrics and /debug/trace are always on -addr)")
	flag.Parse()

	if len(shards) == 0 {
		log.Fatal("piye-router: at least one -shard name=url is required")
	}
	var backends []shard.Backend
	for _, s := range shards {
		backends = append(backends, shard.Backend(s))
	}

	d := daemon.New("piye-router", *traceRing)
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards: backends,
		Seed:   *seed,
		Retry: resilience.Policy{
			MaxAttempts: *retries,
			Timeout:     *proxyTimeout,
		},
		Breaker:        resilience.BreakerConfig{FailureThreshold: *brkFailures, OpenFor: *brkCooldown},
		DisableBreaker: *brkFailures == 0,
		HealthEvery:    *healthEvery,
		Obs:            d.Reg,
		Trace:          d.Tracer,
	})
	if err != nil {
		log.Fatalf("piye-router: %v", err)
	}
	defer rt.Close()
	log.Printf("piye-router fronting %d shards on %s (seed %d)", len(backends), *addr, *seed)

	d.Serve(*addr, *debugAddr, rt.Handler(), "queries")
}
