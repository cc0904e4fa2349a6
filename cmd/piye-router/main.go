// Command piye-router fronts a sharded mediator tier: it terminates
// /query, hashes the requester onto a seeded rendezvous ring, and
// proxies to the owning shard with per-shard circuit breakers, retries
// with backoff, and health-gated membership via each shard's /readyz.
// A shard's answer survives the hop: a 403 privacy refusal stays 403
// verbatim, a not-owner 503 passes back once, and an answer too large to
// forward is a 502. Membership is static: the -shard list is the ring,
// and a query only ever goes to its requester's owner.
//
// Usage:
//
//	piye-router -addr :7200 \
//	    -shard shard-a=http://localhost:7100 \
//	    -shard shard-b=http://localhost:7110 \
//	    -shard shard-c=http://localhost:7120
//
// The -shard names must match every mediator's -shard-id/-shard-peers,
// or the shards' ownership gates will refuse traffic the router
// believed well-placed. Router and mediators place requesters with the
// same seed, shard.DefaultSeed.
//
// Endpoints: POST /query (PIQL body, X-Requester header), GET /shards
// (health and breaker per shard), /healthz, /readyz, /metrics,
// /debug/trace.
package main

import (
	"flag"
	"log"
	"time"

	"privateiye/cmd/internal/daemon"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
)

// Operational values no deployment needs to change.
const (
	retries      = 3                // attempts per proxied query; only failures (a dead shard, a 5xx) are retried
	proxyTimeout = 30 * time.Second // overall deadline per proxied query across retries
	healthEvery  = time.Second      // per-shard /readyz polling period
)

func main() {
	cfg := shard.RouterConfig{
		Seed:        shard.DefaultSeed,
		Retry:       resilience.Policy{MaxAttempts: retries, Timeout: proxyTimeout},
		HealthEvery: healthEvery,
	}
	addr := flag.String("addr", ":7200", "listen address")
	var shards daemon.NameURLs
	flag.Var(&shards, "shard", "shard as name=url (repeatable; names must match the mediators' -shard-id values)")
	flag.IntVar(&cfg.Breaker.FailureThreshold, "breaker-failures", 5, "consecutive failures before a shard's circuit opens (0 = breaker off)")
	flag.DurationVar(&cfg.Breaker.OpenFor, "breaker-cooldown", 5*time.Second, "how long an open circuit waits before a half-open probe")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /metrics, /debug/trace and /debug/pprof (empty = pprof off; /metrics and /debug/trace are always on -addr)")
	flag.Parse()

	if len(shards) == 0 {
		log.Fatal("piye-router: at least one -shard name=url is required")
	}
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, shard.Backend(s))
	}
	cfg.DisableBreaker = cfg.Breaker.FailureThreshold == 0

	d := daemon.New("piye-router")
	cfg.Obs, cfg.Trace = d.Reg, d.Tracer
	rt, err := shard.NewRouter(cfg)
	if err != nil {
		log.Fatalf("piye-router: %v", err)
	}
	defer rt.Close()
	log.Printf("piye-router fronting %d shards on %s (seed %d)", len(cfg.Shards), *addr, cfg.Seed)

	d.Serve(*addr, *debugAddr, rt.Handler(), "queries")
}
