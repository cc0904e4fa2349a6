// Command piye-mediator runs the PRIVATE-IYE mediation engine as an HTTP
// service over a set of source nodes.
//
// Usage:
//
//	piye-mediator -addr :7100 \
//	    -source hospitalA=http://localhost:7101 \
//	    -source hospitalB=http://localhost:7102 \
//	    -dedup name -warehouse 64
//
// Endpoints: POST /query (PIQL body, X-Requester header), GET /schema,
// GET /history (pseudonyms, redacted queries), POST /refresh, and with
// -shard-id GET /shard/status (this shard's id, seed and peers).
//
// Each flag is a deployment setting or a value some caller needs, bound
// straight into the mediator.Config it fills. The PSI suite is not one:
// the mediator prefers x25519, and pinning any one source to modp2048
// (piye-source -psi-suite) pins the fleet.
package main

import (
	"flag"
	"log"
	"strings"
	"time"

	"privateiye/cmd/internal/daemon"
	"privateiye/internal/mediator"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
)

// defaultSalt is the published placeholder linkage secret: fine for
// demos, a linking oracle in production.
const defaultSalt = "privateiye-default-linking-salt"

// Operational values no deployment needs to change.
const (
	warehouseTTL  = 100              // warehouse freshness in integration rounds
	sourceTimeout = 10 * time.Second // one deadline per fan-out
	retries       = 3                // attempts per source call
)

func main() {
	cfg := mediator.Config{WarehouseTTL: warehouseTTL, SourceTimeout: sourceTimeout}
	res := resilience.EndpointConfig{Policy: resilience.Policy{MaxAttempts: retries}}
	var shardCfg mediator.ShardConfig
	addr := flag.String("addr", ":7100", "listen address")
	var sources daemon.NameURLs
	flag.Var(&sources, "source", "source as name=url (repeatable)")
	flag.StringVar(&cfg.DedupColumn, "dedup", "", "result column for fuzzy duplicate elimination")
	flag.IntVar(&cfg.WarehouseCapacity, "warehouse", 0, "warehouse capacity (0 = pure virtual querying)")
	salt := flag.String("salt", defaultSalt, "shared linkage salt")
	flag.IntVar(&res.Breaker.FailureThreshold, "breaker-failures", 5, "consecutive failures before a source's circuit opens (0 = breaker off)")
	flag.DurationVar(&res.Breaker.OpenFor, "breaker-cooldown", 5*time.Second, "how long an open circuit waits before a half-open probe")
	flag.Float64Var(&cfg.MaxDisclosure, "max-disclosure", 0, "release-ledger refusal threshold on combined disclosure (0 = default 0.9)")
	stateDir := flag.String("state-dir", "", "directory persisting the release ledger and query history across restarts (empty = in-memory only)")
	flag.BoolVar(&cfg.Coalesce, "coalesce", false, "merge concurrent identical queries from the same requester into one shared execution (per-caller ledger and audit still run)")
	flag.IntVar(&cfg.PlanCache, "plan-cache", 256, "parse/plan cache capacity in entries (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /metrics, /debug/trace and /debug/pprof (empty = pprof off; /metrics and /debug/trace are always on -addr)")
	flag.StringVar(&shardCfg.ID, "shard-id", "", "this mediator's name in a sharded tier (enables the requester ownership gate; needs -shard-peers)")
	shardPeers := flag.String("shard-peers", "", "comma-separated shard names of the tier, this shard included (must match the router's -shard names)")
	flag.Parse()

	if *salt == defaultSalt {
		log.Print("piye-mediator: WARNING: -salt is the published default; anyone can forge or link Bloom-encoded identifiers. Set a deployment-specific secret.")
	}
	cfg.LinkageSalt = []byte(*salt)

	if len(sources) == 0 {
		log.Fatal("piye-mediator: at least one -source name=url is required")
	}
	for _, s := range sources {
		cfg.Endpoints = append(cfg.Endpoints, source.NewClient(s.URL, s.Name))
	}
	res.DisableBreaker = res.Breaker.FailureThreshold == 0
	cfg.Resilience = &res
	if *stateDir != "" {
		cfg.Durability = &mediator.DurabilityConfig{Dir: *stateDir}
	} else {
		log.Print("piye-mediator: WARNING: no -state-dir; the release ledger and query history are in-memory only, and a restart resets the combination controls (restart-amnesia)")
	}
	if shardCfg.ID != "" || *shardPeers != "" {
		if shardCfg.ID == "" || *shardPeers == "" {
			log.Fatal("piye-mediator: -shard-id and -shard-peers go together")
		}
		shardCfg.Seed = shard.DefaultSeed
		shardCfg.Peers = strings.Split(*shardPeers, ",")
		for _, p := range shardCfg.Peers {
			// An older build took name=url here; read as a name, it would
			// join the ring under a name no router uses.
			if strings.Contains(p, "=") {
				log.Fatalf("piye-mediator: -shard-peers entry %q: the list takes shard names only since shard drain was retired (drop the =url)", p)
			}
		}
		cfg.Shard = &shardCfg
	}
	d := daemon.New("piye-mediator")
	cfg.Obs, cfg.Trace = d.Reg, d.Tracer
	med, err := mediator.New(cfg)
	if err != nil {
		log.Fatalf("piye-mediator: %v", err)
	}
	defer func() {
		if err := med.Close(); err != nil {
			log.Printf("piye-mediator: closing state: %v", err)
		}
	}()
	if st := med.ShardInfo(); st != nil {
		log.Printf("piye-mediator sharding: shard %s of %d peers (seed %d); requesters owned elsewhere answer 503 not-owner",
			st.ID, len(st.Peers), st.Seed)
	}
	log.Printf("piye-mediator psi: suite %s", med.PSISuite())
	log.Printf("piye-mediator serving %d sources on %s (schema: %d paths)",
		len(cfg.Endpoints), *addr, med.MediatedSchema().Len())

	d.Serve(*addr, *debugAddr, mediator.NewHandler(med), "queries")
}
