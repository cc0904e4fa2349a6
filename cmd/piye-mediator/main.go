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
// GET /history, POST /refresh.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"privateiye/cmd/internal/daemon"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/psi"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
)

// defaultSalt is the published placeholder linkage secret: fine for
// demos, a linking oracle in production.
const defaultSalt = "privateiye-default-linking-salt"

func main() {
	addr := flag.String("addr", ":7100", "listen address")
	var sources daemon.NameURLs
	flag.Var(&sources, "source", "source as name=url (repeatable)")
	dedup := flag.String("dedup", "", "result column for fuzzy duplicate elimination")
	whCap := flag.Int("warehouse", 0, "warehouse capacity (0 = pure virtual querying)")
	whTTL := flag.Int64("warehouse-ttl", 100, "warehouse freshness in integration rounds")
	salt := flag.String("salt", defaultSalt, "shared linkage salt")
	psiSuite := flag.String("psi-suite", psi.DefaultSuiteName, "preferred PSI ciphersuite: x25519 (fast EC default) | modp2048; the fleet negotiates at schema refresh over the suites this build can run and fails closed to modp2048 when any source cannot do better")
	srcTimeout := flag.Duration("source-timeout", 10*time.Second, "per-source deadline during fan-out (0 = none)")
	retries := flag.Int("retries", 3, "attempts per source call (1 = no retry)")
	brkFailures := flag.Int("breaker-failures", 5, "consecutive failures before a source's circuit opens (0 = breaker off)")
	brkCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open circuit waits before a half-open probe")
	maxDisc := flag.Float64("max-disclosure", 0, "release-ledger refusal threshold on combined disclosure (0 = default 0.99)")
	ledgerTol := flag.Float64("ledger-tolerance", 0, "accuracy the ledger assumes of published aggregates (0 = default 0.5)")
	stateDir := flag.String("state-dir", "", "directory persisting the release ledger and query history across restarts (empty = in-memory only)")
	coalesce := flag.Bool("coalesce", false, "merge concurrent identical queries from the same requester into one shared execution (per-caller ledger and audit still run)")
	planCache := flag.Int("plan-cache", 256, "parse/plan cache capacity in entries (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /metrics, /debug/trace and /debug/pprof (empty = pprof off; /metrics and /debug/trace are always on -addr)")
	traceRing := flag.Int("trace-ring", obs.DefaultTraceRing, "finished per-query traces kept for /debug/trace (0 = tracing off)")
	replicaOf := flag.String("replica-of", "", "run as a warm standby of the primary mediator at this base URL (needs -state-dir); promote via POST /replica/promote or SIGUSR1")
	epochDir := flag.String("epoch-dir", "", "directory persisting the fencing epoch (default: -state-dir)")
	replicaLagMax := flag.Uint64("replica-lag-max", 0, "records of replication lag a standby tolerates while still reporting ready")
	replicaHeartbeat := flag.Duration("replica-heartbeat", 0, "replication stream keepalive period (0 = default 500ms)")
	shardID := flag.String("shard-id", "", "this mediator's name in a sharded tier (enables the requester ownership gate; needs -shard-peers)")
	shardPeers := flag.String("shard-peers", "", "comma-separated membership of the tier, this shard included, as name or name=url (must match the router's -shard list); URLs let this shard verify drain re-routes and check peers before undrain — without them re-routed requesters are refused fail-closed")
	shardSeed := flag.Uint64("shard-seed", shard.DefaultSeed, "ring placement seed (must match every shard and router in the tier)")
	flag.Parse()

	if *salt == defaultSalt {
		log.Print("piye-mediator: WARNING: -salt is the published default; anyone can forge or link Bloom-encoded identifiers. Set a deployment-specific secret.")
	}

	if len(sources) == 0 {
		log.Fatal("piye-mediator: at least one -source name=url is required")
	}
	var eps []source.Endpoint
	for _, s := range sources {
		eps = append(eps, source.NewClient(s.URL, s.Name))
	}

	var res *resilience.EndpointConfig
	if *brkFailures > 0 || *retries > 1 {
		res = &resilience.EndpointConfig{
			Policy:         resilience.Policy{MaxAttempts: *retries},
			Breaker:        resilience.BreakerConfig{FailureThreshold: *brkFailures, OpenFor: *brkCooldown},
			DisableBreaker: *brkFailures == 0,
		}
	}
	var dur *mediator.DurabilityConfig
	if *stateDir != "" {
		dur = &mediator.DurabilityConfig{Dir: *stateDir}
	} else {
		log.Print("piye-mediator: WARNING: no -state-dir; the release ledger and query history are in-memory only, and a restart resets the combination controls (restart-amnesia)")
	}
	// The replication surface rides along with durability: a durable
	// primary must serve /replica/stream (standbys tail it) and
	// /replica/fence (a promoted successor deposes it), so -state-dir
	// alone enables it in the primary role; -replica-of makes this node
	// the standby instead.
	var rep *mediator.ReplicaConfig
	if *replicaOf != "" && dur == nil {
		log.Fatal("piye-mediator: -replica-of requires -state-dir (the replicated log is the durable state)")
	}
	if dur != nil {
		rep = &mediator.ReplicaConfig{
			PrimaryURL: strings.TrimRight(*replicaOf, "/"),
			EpochDir:   *epochDir,
			LagMax:     *replicaLagMax,
			Heartbeat:  *replicaHeartbeat,
		}
	}
	var shardCfg *mediator.ShardConfig
	if *shardID != "" || *shardPeers != "" {
		if *shardID == "" || *shardPeers == "" {
			log.Fatal("piye-mediator: -shard-id and -shard-peers go together")
		}
		var peerNames []string
		peerURLs := map[string]string{}
		for _, p := range strings.Split(*shardPeers, ",") {
			if name, u, ok := strings.Cut(p, "="); ok {
				peerNames = append(peerNames, name)
				peerURLs[name] = u
			} else {
				peerNames = append(peerNames, p)
			}
		}
		if len(peerURLs) == 0 {
			log.Print("piye-mediator: NOTE: -shard-peers has no name=url entries; router drain re-routes will be refused fail-closed (the drain claim cannot be verified against peers) and undrain requires force")
		}
		shardCfg = &mediator.ShardConfig{
			ID:       *shardID,
			Peers:    peerNames,
			Seed:     *shardSeed,
			PeerURLs: peerURLs,
		}
	}
	d := daemon.New("piye-mediator", *traceRing)
	med, err := mediator.New(mediator.Config{
		Endpoints:         eps,
		LinkageSalt:       []byte(*salt),
		DedupColumn:       *dedup,
		WarehouseCapacity: *whCap,
		WarehouseTTL:      *whTTL,
		MaxDisclosure:     *maxDisc,
		LedgerTolerance:   *ledgerTol,
		PSISuite:          *psiSuite,
		SourceTimeout:     *srcTimeout,
		Resilience:        res,
		Durability:        dur,
		PlanCache:         *planCache,
		Coalesce:          *coalesce,
		Obs:               d.Reg,
		Trace:             d.Tracer,
		Replica:           rep,
		Shard:             shardCfg,
	})
	if err != nil {
		log.Fatalf("piye-mediator: %v", err)
	}
	defer func() {
		if err := med.Close(); err != nil {
			log.Printf("piye-mediator: closing state: %v", err)
		}
	}()
	if rep != nil {
		st := med.ReplicationStatus()
		log.Printf("piye-mediator replication: role %s, epoch %d (promote with POST /replica/promote or SIGUSR1)", st.Role, st.Epoch)
		// SIGUSR1 promotes a standby without needing the HTTP surface —
		// the operator's big red button when the primary is gone.
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				epoch, err := med.Promote()
				if err != nil {
					log.Printf("piye-mediator: SIGUSR1 promotion failed: %v", err)
					continue
				}
				log.Printf("piye-mediator: promoted to primary at epoch %d", epoch)
			}
		}()
	}
	if st := med.ShardInfo(); st != nil {
		log.Printf("piye-mediator sharding: shard %s of %d peers (seed %d); requesters owned elsewhere answer 503 not-owner",
			st.ID, len(st.Peers), st.Seed)
	}
	if got := med.PSISuite(); got != *psiSuite {
		log.Printf("piye-mediator psi: preferred suite %s, fleet negotiated %s", *psiSuite, got)
	} else {
		log.Printf("piye-mediator psi: suite %s", got)
	}
	log.Printf("piye-mediator serving %d sources on %s (schema: %d paths)",
		len(eps), *addr, med.MediatedSchema().Len())

	d.Serve(*addr, *debugAddr, mediator.NewHandler(med), "queries")
}
