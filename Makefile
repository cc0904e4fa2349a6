# PRIVATE-IYE development targets. Everything is stdlib Go; no tools
# beyond the Go toolchain are required.

GO ?= go

.PHONY: all build vet test test-fast test-race test-short test-integration test-shard cover bench bench-quick bench-psi bench-gate attack experiments examples fmt fmt-check fuzz crash loc loc-check sim

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full check: vet, plain tests, then the race detector over everything.
test: vet test-fast test-race

test-fast:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

# End-to-end harness: three source HTTP endpoints behind a mediator,
# driven through the public surfaces only. -count=1 defeats the test
# cache (the harness exercises real sockets and on-disk WALs) and -race
# keeps the fan-out paths honest.
test-integration:
	$(GO) test -count=1 -race ./internal/e2e/

# The sharded mediator tier: ring placement properties and the router
# unit suite, then the three-shard end-to-end harness (stickiness,
# misrouting, refusals surviving the hop and the retired drain routes)
# under the race detector.
test-shard:
	$(GO) test -count=1 -race ./internal/shard/
	$(GO) test -count=1 -race -run TestShardedTierEndToEnd ./internal/e2e/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the hot-path kernels: a smoke check that the
# benchmarks still build and run, not a measurement. The source trio
# prints allocs/op, which repeats exactly even at one iteration: Warm
# (plan from the cache) reading like ColdPlan means planning is back on
# the hit path, and Warm's fig1a (a handful: the plan's answer memo)
# reading like MemoMiss (~72: an Insert outdates the memo before each op,
# so execute, preserve and tag run) means the memo is off the path. Warm's
# selection executes, preserves and tags ~220 rows, rendering them as text
# once and copying them once for preservation: ~25 allocs/op and ~21 kB;
# ~39 and ~60 kB mean the rows pass through relational Values again or
# Collapse sizes to its input, and ~64 that a preservation step copies
# them again. So do the codec's: Parse reading hundreds of allocs/op
# means text is allocated per value again, not per document. The ledger
# pair's hit (the verdict memo's answer) allocates nothing; a hit reading
# allocs/op like its miss means the pair is solved on every query again.
# A warm PSI exponentiation (the memo's answer) allocates a few dozen
# objects per batch, however long; a warm allocs/op that grows with the
# column (over a thousand for its 512 elements) means the memo is off the
# path and every element runs the ladder again. The PSI wire round trip
# (marshal, write, parse, decode 500 x25519 elements) allocates a few
# dozen objects and ships ~43 B per element; either growing with the
# column (hundreds of allocs/op, ~74 B/elem) means an element is a node of
# its own on the wire again. A warm blinded column (PSIBlindedWarm, the
# source's memo) allocates one object; dozens, growing with the column,
# mean it is read, blinded and marshalled on every call again. A warm
# exponentiation (PSIExponentiateWarm) decodes the peer column, answers
# each element from the party's memo and marshals the answer: ~33 allocs
# and ~80 kB; over a thousand allocs mean the memo is off the path and every
# element runs the ladder again. A warm overlap over HTTP
# (OverlapWarmHTTP: two conditional GETs answered 304, the mediator's
# kept count) allocates ~54 objects and ~5.9 kB (~57 at one iteration);
# ~240 and hundreds of kB mean a warm round fetches both columns and
# relays them again. A warm query over HTTP (QueryWarmHTTP: Figure 1a's
# memoised answer revalidated by one conditional POST answered 304)
# allocates ~33 objects and ~4.4 kB (33-41 at one iteration); ~59 and
# ~9.7 kB mean the answer ships and is parsed again. A warm mediated
# query (QueryWarmMediator: a fresh requester's Figure 1a through a
# mediator over three sources that each answer 304, published from the
# mediator's kept integration and recorded by the ledger) allocates ~128
# objects and ~13 kB; ~145 mean a context per source call again, and
# ~244 and ~20 kB mean the mediator parses, merges and folds the three
# held answers again. Its guarded twin (QueryWarmMediatorResilient: each
# source call one resilience.Call, as a shard runs it) allocates ~6 more
# (two per source call); ~12 more mean a result channel per attempt
# again. One internal
# exchange (Exchange, client and server side: a router-shaped POST
# answered with 300 bytes, its body's buffer released, the same POST
# under a context that can be cancelled, and a conditional POST answered
# 304) allocates ~26 objects and ~2.5 kB (38-51 at one iteration, while
# its pools warm); ~85 (~100 at one iteration) mean the hop runs through
# net/http's Transport again, and `cancellable` ~3 over `post` means a
# context.AfterFunc per exchange again.
bench-quick:
	$(GO) test -run '^$$' -bench 'PSI|PIQL|Fig1dInference' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/xmltree/
	$(GO) test -run '^$$' -bench 'SourceExecute|PSIBlindedWarm|PSIExponentiateWarm|OverlapWarmHTTP|QueryWarmHTTP|Exchange' -benchtime 1x -benchmem ./internal/source/
	$(GO) test -run '^$$' -bench 'LedgerCheck|QueryWarmMediator|QueryWarmMediatorResilient' -benchtime 1x -benchmem ./internal/mediator/
	$(GO) test -run '^$$' -bench 'ExponentiateBatch/x25519/warm' -benchtime 1x -benchmem ./internal/psi/
	$(GO) test -run '^$$' -bench 'WireRoundTrip/x25519' -benchtime 1x -benchmem ./internal/psi/

# The PSI suite comparison: cold-start blinding across suites (the
# number the EC default is justified by), the allocation-sensitive
# hash-to-group kernels, the responder's exponentiation cold (one
# group operation per element) and warm (memo lookups), and one envelope's
# wire round trip per suite. Printed, not gated.
bench-psi:
	$(GO) test -run '^$$' -bench 'BenchmarkBlindCold|BenchmarkHashToGroup|BenchmarkExponentiateBatch|BenchmarkWireRoundTrip' -benchmem ./internal/psi/

# The perf gate: each BENCHMARK.json workload five times (gateRuns in
# bench_gate_test.go) at the short run length recorded in the latest
# BENCH_<pr>.json, failing if the median of allocs_per_op, wire_kb_per_op
# or heap_live_mb (the metrics that repeat well inside their bounds on any
# machine) is more than the BENCHMARK.json bound over the committed figure,
# itself a median of five runs. A PR that moves one on purpose commits its
# own BENCH_<pr>.json.
bench-gate:
	BENCH_GATE=1 $(GO) test -count=1 -run '^TestBenchGate$$' -v .

# Short native-fuzzing runs over the untrusted-input decoders and the
# ring invariants: WAL record decoding (and the mediator's record
# writer, differentially against encoding/json), the PIQL parser, the reader of a
# source's result and its row multiplicities, the XML envelope tokenizer
# (differentially against encoding/xml) and writer, the PSI
# wire envelope and element decoders (both suites), a source's
# self-description (GET /summary), and shard placement
# under arbitrary joins. Raise FUZZTIME for longer hunts.
# The targets that run xmltree's codec cap minimization: its pooled buffers make
# coverage vary run to run, and the default 60s of minimizing each
# "new" input would eat the whole budget.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseDifferential -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz FuzzEncodeRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME) ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzAppendWALRecord -fuzztime $(FUZZTIME) ./internal/mediator/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/piql/
	$(GO) test -run '^$$' -fuzz FuzzResultFromNode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/piql/
	$(GO) test -run '^$$' -fuzz FuzzDescriptionFromNode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/source/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalElems -fuzztime $(FUZZTIME) ./internal/psi/
	$(GO) test -run '^$$' -fuzz FuzzX25519DecodeElement -fuzztime $(FUZZTIME) ./internal/psi/
	$(GO) test -run '^$$' -fuzz FuzzModPDecodeElement -fuzztime $(FUZZTIME) ./internal/psi/
	$(GO) test -run '^$$' -fuzz FuzzRingLookup -fuzztime $(FUZZTIME) ./internal/shard/

# Crash-injection matrix: every durable-log failpoint (also with appends
# landing between a snapshot's capture and its install), plus the
# mediator- and audit-level crash/restart suites.
crash:
	$(GO) test -run 'Crash|Restart|Unrecordable|Torn|Contract' -v ./internal/durable/ ./internal/mediator/ ./internal/audit/

# The privacy contract's long sweep: SIM_SCHEDULES generated schedules of
# queries x features x faults from seed SIM_SEED on, each checked against
# the three invariants of internal/mediator/sim_test.go (DESIGN.md §16).
# A failing seed is shrunk and printed as a corpus line. Tier-1 runs the
# scenario table, the corpus and a handful of schedules.
SIM_SCHEDULES ?= 10000
SIM_SEED ?= 1
sim:
	$(GO) test -count=1 -timeout 60m -run '^TestContractSweep$$' -v ./internal/mediator/ -args -sim.schedules=$(SIM_SCHEDULES) -sim.seed=$(SIM_SEED)

attack:
	$(GO) run ./cmd/piye-attack

experiments:
	$(GO) run ./cmd/piye-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clinical
	$(GO) run ./examples/outbreak
	$(GO) run ./examples/federation
	$(GO) run ./examples/policytour

fmt:
	gofmt -w .

# CI's form of fmt: lists the unformatted files and fails if there are any.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . is not empty:"; echo "$$out"; exit 1; fi

# The two numbers the design-subtraction aim is judged by: lines of
# non-test Go, and flags per daemon. Printed here, both gated by
# loc-check.
loc:
	@printf 'non-test Go lines: '; find . -name '*.go' -not -name '*_test.go' | xargs cat | wc -l
	@for d in cmd/piye-*; do printf '%s flags: ' $$d; grep -o 'flag\.[A-Z][A-Za-z0-9]*(' $$d/main.go | grep -vc 'flag\.Parse('; done

# The ceiling on the first of them: what the last PR to lower it left. A
# PR that removes code lowers LOC_CEILING to its own `make loc`; one that
# has to add code raises it in the same diff and says why.
# PR 24, 27,792 -> 27,911: a source's plain answer ships each distinct row
# once with its multiplicity (collapse, wire form and its validation, one
# collision-free row key, interned age bands); wire -90 % on cold_fanout.
# PR 25, 27,911 -> 27,775: one durability rule — the interval/never fsync
# policies, their syncer, the staged-record path and -fsync are gone.
# 27,775 -> 27,906: the x25519 PSI suite replaces P-256, and items
# hash onto the curve by Elligator 2 over GF(2^255-19) arithmetic written
# here (a raw hashed u-coordinate would leak its curve/twist bit; DESIGN.md
# §14); allocs -73 % on psi_overlap.
# 27,906 -> 28,079: the history keeps 24-byte records over interned
# requester, text and source-list tables, and a release's values are a
# sorted slice whose JSON writer reproduces the map's bytes (DESIGN.md §7);
# hot_aggregate heap 14.7 -> 5.2 MB.
# 28,079 -> 27,856: one guarded call at both hops and one Endpoint
# decorator; LinkageRecords, its route and wire codec are gone.
# 27,856 -> 27,874: every function the NLP solver sees carries its exact
# gradient (nlp.Func; the attack's mean and sigma bands each supply one)
# in place of the central-difference loop; the ledger's Figure 1 check
# is ~5x faster.
# 27,874 -> 27,720: one drain truth — the router's drain marks and their
# status-poll sync, Ring.SetDraining/LookupActive/Remove and the second
# lookup loop, SetShardPeerURLs and DrainVerifyTTL are gone.
# 27,720 -> 26,991: admission control and brownout are retired (the
# admission package, both gates, the -admit-* flags, the stale warehouse
# read); /debug/trace prints requester pseudonyms and redacted queries.
# 26,991 -> 27,055: the privacy-contract harness (DESIGN.md §16) found three
# ways a refusal became a grant, now closed: the drain mark is a logged,
# recovered and replicated record, and a drain claim is honoured only when
# the claimed shard holds no state for the requester.
# 27,055 -> 27,193: the release ledger keeps each distinct release once (a
# content-hashed table, per-requester ids, an exact equality check, and a
# snapshot writer that splices each release's bytes into the map's
# encoding), and a pair the combination check cannot evaluate is refused
# with its own reason, ledger-unverifiable (DESIGN.md §7, §9); ledger_mix
# heap 8.77 -> 4.89 MB (E43).
# 27,193 -> 27,170: fourteen daemon flags are constants (every caller ran
# them at their defaults) and piye-mediator binds its flags into the one
# mediator.Config; promotion and Close wait for the replication
# goroutines; /history shows pseudonyms and redacted queries; the ledger
# records each release's WHERE and refuses means of one column over two
# populations as ledger-unverifiable (DESIGN.md §7).
# 27,170 -> 27,377: a ledgered answer is one WAL record (release and
# history entry), written in place by record writers that reproduce
# json.Marshal's bytes (the snapshot's history encoder went); the ledger
# check runs under no lock, split from the commit section that re-checks;
# durable's WAL goes through a walFile seam whose LoseUnsynced makes
# "visible before fsync" observable to the contract harness (DESIGN.md
# §7); ledger_mix allocs/op 988.0 -> 977.6 (E45).
# 27,377 -> 25,876: hot-standby replication is retired (internal/replica,
# mediator/replicate.go, durable's tail API and epoch file, the
# /replica/* routes, -replica-of and -epoch-dir); the WAL, the snapshot
# and restart recovery stay (DESIGN.md §11).
# 25,876 -> 25,305: shard drain is retired (DrainingError, the re-route
# claim check, the undrain strand check, the drain mark's live writes,
# the X-Shard-Rerouted-From header, the /shard(s)/drain|undrain routes,
# Ring.LookupExcluding and Ring.Len); the ring, the router and the
# ownership gate stay (DESIGN.md §13).
# 25,305 -> 25,216: one MODP group (the 768-bit test group, PSIGroup,
# Local.Group and ModPSuite's group argument are gone; modp2048 is built
# once), and a PSI envelope without its suite or count is refused (the
# pre-negotiation shims are gone; DESIGN.md §14).
# 25,216 -> 25,124: the outcome rule has three outcomes (the shed class,
# refusal.IsShed, Retry-After pacing and HTTPError's 429/501 clauses are
# gone at both hops); the router refuses an answer over its cap with a
# 502 instead of forwarding a prefix (DESIGN.md §6, §13).
# 25,124 -> 25,215: the ledger's combination check keeps a bounded verdict
# memo beside its interned release table, so each distinct Figure 1 pair
# is solved once per shard, and piye_mediator_ledger_solves_total counts
# hits and misses (DESIGN.md §7); ledger_mix allocs/op 977.4 -> 976.1 and
# a refused 1(b) 270 -> 0.55 ms at p50 (E50).
# 25,215 -> 25,054: one Privacy Control — CheckAggregateRelease,
# ReleaseDecision, QuickBounds and mediator/control.go are gone (the
# ledger's NLP check is the only one), -max-disclosure defaults to 0.9,
# and a query's answers are integrated in routing order (DESIGN.md §7, E51).
# 25,054 -> 25,089: a PSI party memoizes its exponentiation of peer
# elements beside its blinds, through one chunk routine the two kernels
# share, and an x25519 element decodes in place in its envelope's slab
# (DESIGN.md §8, §14); psi_overlap allocs/op ~4,730 -> ~700 (E52).
# 25,089 -> 25,203: a source's cached plan keeps its last deterministic
# aggregate answer, stamped with the data version of the tables it reads
# (Table.Version, preserve.Deterministic, the memo outcome), and route
# matches summaries in place (DESIGN.md §8); ledger_mix allocs/op ~974 ->
# ~738 (E53).
# 25,203 -> 25,230: a PSI envelope carries its column as one packed
# base64 text; its decoder checks length, alphabet and trailing bits and
# keeps the lowest-index rule across a one-pass spelling check (DESIGN.md
# §14), and Table.Rows' view guards ORDER BY *; psi_overlap wire_kb/op
# 223.3 -> 129.3 (E54).
# 25,230 -> 25,344: a source keeps each blinded column whole, as its
# encoded envelope, stamped with the column's data version (the memo, its
# stamp and the handler that writes its bytes; DESIGN.md §14), and
# parallel.ForEach keeps its dispatch state in one struct with a worker
# method; psi_overlap allocs/op 650.3 -> 519.4 (E55).
# 25,344 -> 25,436: a source keeps its answer to the last peer column per
# suite, by the envelope's SHA-256 digest (the slot, its key, the hit
# counter registered beside the suite's party, and one writer for both
# kept envelopes; DESIGN.md §14); psi_overlap allocs/op ~519 -> ~450 (E56).
# 25,436 -> 25,496: each ledgered release carries the tolerance its
# answers were published at (preserve.RoundedPlaces reads the technique
# tag against the literals; the release's Tol field, its WAL/snapshot
# writer, the pair's finer tolerance on both refusals) and
# -ledger-tolerance with its 0.5 default is gone (DESIGN.md §7, E57).
# 25,496 -> 25627: a kept blinded column carries a content-digest ETag and
# GET /psi/blinded answers a matching If-None-Match 304; the Client keeps
# its last column per suite and revalidates it, and Mediator.Overlap keeps
# the count of the last pair of columns (PrivateOverlap split into
# blindBoth and countOverlap; DESIGN.md §14); psi_overlap allocs/op ~450
# -> ~174 (E58).
# 25,627 -> 25,554: the PSI responder's whole-answer memo is gone (its
# slot, digest key, hit counter and second writer): a warm overlap is two
# 304s and never reaches it, and every exponentiation takes the
# per-element memo's path (DESIGN.md §14, E59).
# 25,554 -> 25,608: a plan's memoised answer is kept encoded with a
# content-digest ETag and POST /query answers a matching If-None-Match
# 304 after the audit; the kept reply type, its writer and the Client's
# conditional request are shared by the blinded-column and query routes
# (DESIGN.md §14, Revalidation: both routes); ledger_mix wire_kb/op
# 4.83 -> 3.42 (E60).
# 25,608 -> 25,601: both internal hops send through one exchange helper
# over the shared transport (the default client, its accessor and the
# Client's second request builder are gone), and the writer's indentation
# helpers are gone with the indentation (DESIGN.md §8, §15, E61).
# 25,601 -> 25,740: every preservation technique has an in-place form
# beside its copying Apply, a Pipeline runs them on one copy of the rows,
# Generalize memoises in a fixed table on the stack, and Parse refuses a
# local name no writer can emit (DESIGN.md §8, §15); cold_fanout
# allocs/op ~803 -> ~731 (E62).
# 25,740 -> 26,015: both internal hops speak HTTP/1.1 through the tier's
# own client in place of net/http's Transport (source.Exchange: the
# request writer, the reader of a Content-Length or chunked answer and of
# the headers a caller reads, the per-peer idle pool and its 90 s sweep;
# the tuned transport, its ceiling body and the router's proxyResult are
# gone; DESIGN.md §8, E63); cold_fanout allocs/op ~731 -> ~551.
# 26,015 -> 26,100: the mediator keeps its last integration of an
# aggregate and publishes it again when every target answers with the
# node it was folded from (the slot, the reuse check in the fan-out loop,
# the memo outcome), the Client keeps its /query target and sends the
# query text without a copy, and denials render in source order
# (DESIGN.md §8, E64); ledger_mix allocs/op ~437 -> ~337.
# 26,100 -> 26,189: a mediated query pays per answer, not per call (one
# context per fan-out, the pool of attempt result channels, the shared
# execution holding its Integrated, Denied made on the first refusal, a
# test's view of the collection order), and an internal hop's answer is
# read into a pooled body that xmltree.ParseBytes parses where it lies
# (Reply.Release; DESIGN.md §6, §15, E65); ledger_mix allocs/op ~337 -> ~312.
# 26,189 -> 26,182: one overlap entry point (the free PrivateOverlap and
# its three facade wrappers are gone) and no POST /preferences, against a
# policy gate and a sorted column at GET /psi/blinded (DESIGN.md §14, E66).
# 26,182 -> 26,330: a plain answer pays for the rows it ships
# (relational.Query.ExecuteText: one WHERE pass into a match bitmap, the
# selected cells written as text into a slab sized to the match count,
# Execute's column checks kept, the schema's names kept for SELECT *;
# source.ResultToPIQL is gone), Collapse's linear scan before its
# RowIndex, a query body read once into an exact slice, a trace sized by
# its pipeline, and estimateLoss's column scan (DESIGN.md §8, §15, E67);
# cold_fanout allocs/op ~514 -> ~462.
# 26,330 -> 26,263: schema refresh asks each source once (source.Endpoint's
# Describe and its Description replace FetchSummary, FetchProfiles and
# PSISuites; GET /summary carries the profiles and the suite
# advertisement, and GET /profiles, GET /psi/suites, their handlers, the
# client's three calls and the decorator's three methods are gone;
# DESIGN.md §14, E68).
# 26,263 -> 26,312: an internal exchange watches its caller through its
# connection's own watcher goroutine in place of a context.AfterFunc per
# exchange (watchedConn: the arm/disarm hand-off, its loop and Close, the
# dial and the pool holding watched connections; DESIGN.md §6, §8, E69);
# ledger_mix allocs/op ~306 -> ~290.
LOC_CEILING = 26312
# The ceiling on the second: flags per daemon, as `make loc` counts them.
# A flag is kept only as a deployment setting or as a value some caller
# needs other than its default; a PR that adds one raises its ceiling here
# and says which.
FLAG_CEILINGS = piye-mediator=14 piye-source=11 piye-router=5
loc-check:
	@n=$$(find . -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "non-test Go is $$n lines, over the ceiling of $(LOC_CEILING) (LOC_CEILING in the Makefile)"; exit 1; \
	fi; \
	echo "non-test Go lines: $$n, ceiling $(LOC_CEILING)"; \
	for c in $(FLAG_CEILINGS); do \
		d=$${c%=*}; max=$${c#*=}; \
		f=$$(grep -o 'flag\.[A-Z][A-Za-z0-9]*(' cmd/$$d/main.go | grep -vc 'flag\.Parse('); \
		if [ $$f -gt $$max ]; then \
			echo "cmd/$$d has $$f flags, over its ceiling of $$max (FLAG_CEILINGS in the Makefile)"; exit 1; \
		fi; \
		echo "cmd/$$d flags: $$f, ceiling $$max"; \
	done
