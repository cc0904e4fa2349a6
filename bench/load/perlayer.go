package main

// perlayer.go is the -trace 1 run: an untraced and a traced pass at a
// quarter of the op count on one tier, then isolated calls into single
// layers. Each per-layer metric comes from one of three places, all
// outside the program (README has the table):
//
//	a  spans at the boundaries the harness owns (trace.go)
//	b  deltas of what the daemons already export, read from their registries
//	c  isolated calls into a layer's public functions (adapter.go)

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// perLayerUnits names every per-layer metric and its unit; BENCHMARK.json
// lists the same names (load_test.go checks).
var perLayerUnits = map[string]string{
	"client.qps": "1/s", "client.p50_ms": "ms", "client.cpu_ms_per_op": "ms",
	"client.mean_ms": "ms", "client.p95_ms": "ms", "client.p99_ms": "ms", "client.samples": "count",
	"client.self_ms": "ms", "client.refused_p50_ms": "ms",

	"shard.router_handle_ms": "ms", "shard.router_self_ms": "ms", "shard.wire_kb_per_op": "kB", "shard.lookup_ns": "ns",

	"mediator.handle_ms": "ms", "mediator.self_ms": "ms", "mediator.wire_kb_per_op": "kB",
	"mediator.source_calls_per_op": "1", "mediator.fanout_skew_ms": "ms",
	"mediator.parse_ms": "ms", "mediator.warehouse_ms": "ms", "mediator.route_ms": "ms", "mediator.fanout_ms": "ms",
	"mediator.integrate_ms": "ms", "mediator.control_ms": "ms", "mediator.ledger_ms": "ms",
	"mediator.unattributed_ms": "ms", "mediator.query_ms": "ms", "mediator.ledger_refusals": "count",

	"warehouse.hit_ratio": "1", "warehouse.get_ns": "ns",
	"qcache.mediator_hit_ratio": "1", "qcache.source_hit_ratio": "1",
	"piql.parse_us": "us",

	"source.call_ms": "ms", "source.handle_ms": "ms", "source.hop_ms": "ms", "source.wire_kb_per_op": "kB",
	"source.rows_per_op": "1", "source.plan_ms": "ms", "source.execute_ms": "ms", "source.preserve_ms": "ms",
	"source.unattributed_ms": "ms", "source.query_ms": "ms",

	"xmltree.encode_us": "us", "xmltree.decode_us": "us", "xmltree.envelope_kb": "kB",

	"durable.appends_per_op": "1", "durable.fsyncs_per_op": "1", "durable.wal_bytes_per_op": "B",
	"durable.state_mb": "MB", "durable.append_us": "us", "durable.snapshot_ms": "ms", "durable.recover_ms": "ms",

	"attack.infer_ms": "ms",

	"psi.blind_cold_us_per_item": "us", "psi.blind_warm_us_per_item": "us", "psi.exp_us_per_item": "us",
	"psi.marshal_us_per_item": "us", "psi.unmarshal_us_per_item": "us", "psi.wire_bytes_per_item": "B",
	"psi.items_per_op": "1", "psi.blind_cache_hit_ratio": "1", "psi.relay_ms": "ms",

	"runtime.alloc_kb_per_op": "kB", "runtime.gc_cycles_per_kop": "1", "runtime.gc_cpu_share": "1",

	"trace.unattributed_share": "1", "trace.overhead_share": "1",
}

// traceShare is the part of the frozen op count each pass of a -trace 1
// run executes.
const traceShare = 0.25

func runPerLayer(w workload, seed uint64, scale float64, spanFile string) (*report, error) {
	b, p, recoverTime, err := setUp(w, seed, scale*traceShare)
	if err != nil {
		return nil, err
	}
	defer b.tearDown()
	fmt.Println(environmentLine(b.t))

	untraced := b.pass(p.measured)
	if err := untraced.err(); err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	b.t.tr.on.Store(true)
	traced := b.pass(p.traced)
	b.t.tr.on.Store(false)
	if err := traced.err(); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := b.t.tr.writeSpans(spanFile); err != nil {
		return nil, err
	}

	m := map[string]float64{}
	for name := range perLayerUnits {
		m[name] = 0
	}
	pathCalls := b.fromSpans(m, traced)
	b.fromRegistries(m, traced)
	if err := b.fromIsolatedCalls(m, p, traced); err != nil {
		return nil, fmt.Errorf("isolated calls: %w", err)
	}

	ops := float64(untraced.ops)
	m["durable.recover_ms"] = ms(recoverTime)
	m["runtime.alloc_kb_per_op"] = float64(untraced.allocBytes) / 1000 / ops
	m["runtime.gc_cycles_per_kop"] = float64(untraced.gcCycles) / ops * 1000
	if untraced.cpu > 0 {
		m["runtime.gc_cpu_share"] = untraced.gcCPU / untraced.cpu.Seconds()
	}
	m["client.qps"], m["client.cpu_ms_per_op"] = untraced.qps(), untraced.cpuMsPerOp()
	p50u, p50t := untraced.p50ms(), traced.p50ms()
	m["client.p50_ms"] = p50u
	if p50u > 0 {
		m["trace.overhead_share"] = (p50t - p50u) / p50u
	}
	if clientMean := m["client.mean_ms"]; clientMean > 0 {
		m["trace.unattributed_share"] = (m["mediator.unattributed_ms"] + pathCalls*m["source.unattributed_ms"]) / clientMean
	}

	fmt.Printf("workload %s seed %d: per-layer run, %d ops per pass, %d clients; p50 untraced %.4f ms, traced %.4f ms; spans in %s\n",
		w.name, seed, traced.ops, w.clients, p50u, p50t, spanFile)
	rep := &report{Correct: true, Attempted: untraced.ops + traced.ops, Metrics: map[string]metric{}}
	for name, unit := range perLayerUnits {
		rep.Metrics[name] = metric{m[name], unit}
	}
	return rep, nil
}

// --- a: spans -----------------------------------------------------------------

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fromSpans fills the span-derived metrics. It returns how many source
// calls deep an op's blocking path is on average — about 1 when the calls
// of an op run in parallel, their number when they run one after another
// (PSI) — which is the weight source-side per-call times get in
// trace.unattributed_share.
func (b *bench) fromSpans(m map[string]float64, res *passResult) float64 {
	sorted := sortedCopy(res.latencies)
	total := time.Duration(0)
	for _, d := range sorted {
		total += d
	}
	m["client.samples"] = float64(len(sorted))
	m["client.mean_ms"] = ms(total) / float64(len(sorted))
	m["client.p95_ms"] = ms(quantile(sorted, 0.95))
	m["client.p99_ms"] = ms(quantile(sorted, 0.99))
	m["client.refused_p50_ms"] = ms(quantile(sortedCopy(res.refused), 0.5))

	var clientSelf, routerHandle, routerSelf, medHandle, medSelf, skew, call, handle, relay, path []float64
	calls, rows := 0, 0
	for _, group := range b.t.tr.finish() {
		var client, router, shard *span
		var cs []*span
		for _, s := range group {
			switch s.Layer {
			case layerClient:
				client = s
			case layerRouter:
				router = s
			case layerShard:
				shard = s
			case layerSourceCall:
				cs = append(cs, s)
				call = append(call, s.DurUs/1e3)
				rows += s.Rows
			case layerSourceHandle:
				handle = append(handle, s.DurUs/1e3)
			}
		}
		if client == nil {
			continue
		}
		calls += len(cs)
		callSum := 0.0
		for _, c := range cs {
			callSum += c.DurUs
		}
		if len(cs) > 0 {
			path = append(path, covered(cs)/(callSum/float64(len(cs))))
		}
		if router != nil {
			clientSelf = append(clientSelf, (client.DurUs-router.DurUs)/1e3)
			routerHandle = append(routerHandle, router.DurUs/1e3)
			if shard != nil {
				routerSelf = append(routerSelf, (router.DurUs-shard.DurUs)/1e3)
			}
		} else {
			// No HTTP front on this op (PSI): the client's children are the
			// source calls, made one after another.
			clientSelf = append(clientSelf, (client.DurUs-callSum)/1e3)
			relay = append(relay, (client.DurUs-callSum)/1e3)
		}
		if shard != nil {
			medHandle = append(medHandle, shard.DurUs/1e3)
			medSelf = append(medSelf, (shard.DurUs-covered(cs))/1e3)
			if len(cs) >= 2 {
				durs := make([]float64, len(cs))
				for i, c := range cs {
					durs[i] = c.DurUs / 1e3
				}
				sort.Float64s(durs)
				skew = append(skew, durs[len(durs)-1]-durs[len(durs)/2])
			}
		}
	}
	ops := float64(res.ops)
	m["client.self_ms"] = mean(clientSelf)
	m["shard.router_handle_ms"] = mean(routerHandle)
	m["shard.router_self_ms"] = mean(routerSelf)
	m["mediator.handle_ms"] = mean(medHandle)
	m["mediator.self_ms"] = mean(medSelf)
	m["mediator.fanout_skew_ms"] = mean(skew)
	m["mediator.source_calls_per_op"] = float64(calls) / ops
	m["source.call_ms"] = mean(call)
	m["source.handle_ms"] = mean(handle)
	m["source.hop_ms"] = mean(call) - mean(handle)
	m["source.rows_per_op"] = float64(rows) / ops
	m["psi.relay_ms"] = mean(relay)
	m["shard.wire_kb_per_op"] = float64(res.routerWire) / 1000 / ops
	m["mediator.wire_kb_per_op"] = float64(res.shardWire) / 1000 / ops
	m["source.wire_kb_per_op"] = float64(res.sourceWire) / 1000 / ops
	return mean(path)
}

// --- b: what the daemons export ---------------------------------------------------

// delta sums a series' growth over the pass across the given registries
// (indices into passResult.before/after: 0 router, then shards, then
// sources).
func delta(res *passResult, idx []int, series string) float64 {
	d := 0.0
	for _, i := range idx {
		d += res.after[i][series] - res.before[i][series]
	}
	return d
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func (b *bench) fromRegistries(m map[string]float64, res *passResult) {
	var shards, sources []int
	for i := range b.t.shards {
		shards = append(shards, 1+i)
	}
	for i := range b.t.sources {
		sources = append(sources, 1+len(b.t.shards)+i)
	}
	ops := float64(res.ops)

	attributed := 0.0
	for _, stage := range []string{"parse", "warehouse", "route", "fanout", "integrate", "control", "ledger"} {
		v := delta(res, shards, `piye_mediator_stage_seconds_sum{stage="`+stage+`"}`) * 1e3 / ops
		m["mediator."+stage+"_ms"] = v
		if stage != "fanout" {
			attributed += v
		}
	}
	m["mediator.unattributed_ms"] = m["mediator.self_ms"] - attributed
	m["mediator.ledger_refusals"] = delta(res, shards, `piye_mediator_refusals_total{reason="ledger-combination"}`)
	m["warehouse.hit_ratio"] = ratio(delta(res, shards, "piye_warehouse_hits_total"), delta(res, shards, "piye_warehouse_misses_total"))
	m["qcache.mediator_hit_ratio"] = ratio(
		delta(res, shards, `piye_plan_cache_hits_total{scope="mediator"}`),
		delta(res, shards, `piye_plan_cache_misses_total{scope="mediator"}`))

	// Source stage times are means per source call: the calls of one op
	// run in parallel, so the per-call mean is what sits on the op's path.
	var srcCalls, srcStages, planHits, planMisses, blind, blindHits, exp float64
	for k, i := range sources {
		name := sourceNames[k]
		one := []int{i}
		srcCalls += delta(res, one, `piye_source_query_seconds_count{source="`+name+`"}`)
		planHits += delta(res, one, `piye_plan_cache_hits_total{scope="source:`+name+`"}`)
		planMisses += delta(res, one, `piye_plan_cache_misses_total{scope="source:`+name+`"}`)
		labels := `{source="` + name + `",suite="` + psiSuite + `"}`
		blind += delta(res, one, "piye_psi_blind_items_total"+labels)
		blindHits += delta(res, one, "piye_psi_blind_cache_hits_total"+labels)
		exp += delta(res, one, "piye_psi_exponentiate_items_total"+labels)
	}
	if srcCalls > 0 {
		for _, stage := range []string{"plan", "audit", "execute", "preserve"} {
			sum := 0.0
			for k, i := range sources {
				sum += delta(res, []int{i}, `piye_source_stage_seconds_sum{source="`+sourceNames[k]+`",stage="`+stage+`"}`)
			}
			v := sum * 1e3 / srcCalls
			srcStages += v
			if stage != "audit" {
				m["source."+stage+"_ms"] = v
			}
		}
	}
	m["source.unattributed_ms"] = m["source.handle_ms"] - srcStages
	m["qcache.source_hit_ratio"] = ratio(planHits, planMisses)
	m["psi.items_per_op"] = (blind + exp) / ops
	if blind > 0 {
		m["psi.blind_cache_hit_ratio"] = blindHits / blind
	}

	appends := delta(res, shards, `piye_wal_appends_total{log="mediator"}`)
	m["durable.appends_per_op"] = appends / ops
	m["durable.fsyncs_per_op"] = delta(res, shards, `piye_wal_fsyncs_total{log="mediator"}`) / ops
	m["durable.wal_bytes_per_op"] = delta(res, shards, `piye_wal_bytes_total{log="mediator"}`) / ops
	wal, snap := b.t.stateBytes()
	m["durable.state_mb"] = float64(wal+snap) / 1e6
}

// --- c: isolated calls -----------------------------------------------------------

func (b *bench) fromIsolatedCalls(m map[string]float64, p phases, res *passResult) error {
	ctx := context.Background()
	// Which layers get an isolated call follows from what the traced pass
	// did, not from the workload's name.
	if m["psi.items_per_op"] > 0 {
		cost, err := measurePSI(psiSuite, b.oracle.names)
		if err != nil {
			return err
		}
		m["psi.blind_cold_us_per_item"] = cost.blindColdUs
		m["psi.blind_warm_us_per_item"] = cost.blindWarmUs
		m["psi.exp_us_per_item"] = cost.expUs
		m["psi.marshal_us_per_item"] = cost.marshalUs
		m["psi.unmarshal_us_per_item"] = cost.unmarshalUs
		m["psi.wire_bytes_per_item"] = cost.wireBytes
	}
	if len(p.isolated) > 0 {
		var keys, texts []string
		seenText := map[string]bool{}
		for _, o := range p.isolated {
			keys = append(keys, o.requester)
			if t := queryText(o); !seenText[t] {
				seenText[t] = true
				texts = append(texts, t)
			}
		}
		m["shard.lookup_ns"] = b.t.place.lookupNs(keys, 200000)
		ns, err := warehouseGetNs(hotRequesters, 200000)
		if err != nil {
			return err
		}
		m["warehouse.get_ns"] = ns
		if m["piql.parse_us"], err = parseUs(texts, 2000); err != nil {
			return err
		}

		// The pipeline without transport: QueryContext on the owning
		// shard, then Local.Query on one source, over the workload's own
		// (requester, query) pairs.
		t0 := time.Now()
		for _, o := range p.isolated {
			owner, err := b.t.place.owner(o.requester)
			if err != nil {
				return err
			}
			for _, s := range b.t.shards {
				if s.id == owner {
					if err := s.queryInProcess(ctx, queryText(o), o.requester); err != nil {
						return err
					}
				}
			}
		}
		m["mediator.query_ms"] = ms(time.Since(t0)) / float64(len(p.isolated))
		if m["mediator.source_calls_per_op"] > 0 {
			t0 = time.Now()
			for _, o := range p.isolated {
				if err := b.t.sources[0].queryInProcess(ctx, queryText(o), o.requester); err != nil {
					return err
				}
			}
			m["source.query_ms"] = ms(time.Since(t0)) / float64(len(p.isolated))
		}
	}

	for _, s := range b.t.shards {
		env, err := s.capturedEnvelope(200)
		if err != nil {
			return err
		}
		if env.kb > 0 {
			m["xmltree.encode_us"], m["xmltree.decode_us"], m["xmltree.envelope_kb"] = env.encodeUs, env.decodeUs, env.kb
			break
		}
	}

	if appends := m["durable.appends_per_op"]; appends > 0 {
		record := int(math.Round(m["durable.wal_bytes_per_op"] / appends))
		_, snap := b.t.stateBytes()
		cost, err := measureWAL(filepath.Join(b.t.stateRoot, "isolated-wal"), record, int(snap)/len(b.t.shards), 2000, 5)
		if err != nil {
			return err
		}
		m["durable.append_us"], m["durable.snapshot_ms"] = cost.appendUs, cost.snapshotMs
	}

	if m["mediator.ledger_refusals"] > 0 {
		// The release pair as the ledger sees it: published values are
		// rounded to integers by the sources' mitigation.
		_, tests, _ := complianceMatrix()
		var attrMean, attrSigma, partyMean []float64
		sortedTests := append([]string(nil), tests...)
		sort.Strings(sortedTests)
		for _, t := range sortedTests {
			attrMean = append(attrMean, math.Round(b.oracle.testMean[t]))
			attrSigma = append(attrSigma, math.Round(b.oracle.testSigma[t]))
		}
		for _, v := range b.oracle.hmoMean {
			partyMean = append(partyMean, math.Round(v))
		}
		v, err := attackInferMs(attrMean, attrSigma, partyMean, 1)
		if err != nil {
			return err
		}
		m["attack.infer_ms"] = v
	}
	return nil
}

// queryText is the PIQL text of an HTTP op.
func queryText(o op) string {
	switch o.kind {
	case opHot:
		return hotQuery
	case opCold:
		return fmt.Sprintf(coldQuery, o.arg)
	case opFig1a:
		return fig1a
	default:
		return fig1b
	}
}
