// Package e2e locks the observability layer in with a full-system test:
// three source nodes behind real HTTP servers, a mediator fanning out to
// them, and assertions against the same /metrics and /debug/trace
// surfaces an operator would scrape. The scenario walks the pipeline
// through every interesting outcome — an answered aggregate release, a
// warehouse-served repeat, a ledger combination refusal, a restart that
// must replay the refusal, and a dead source tripping its circuit
// breaker — and checks that counters, histograms, gauges and trace spans
// all tell that story.
package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/source"
)

var salt = []byte("e2e-linkage-salt")

// The paper's Figure 1 as a query pair: per-test statistics (1a) then
// per-HMO means (1b). Individually authorized, jointly an interval
// inference attack the ledger must refuse.
const (
	perTestQuery = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
	perHMOQuery  = "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
)

// complianceNode builds one source node (with its own registry and
// tracer) holding the Figure 1 compliance table, and serves it over HTTP.
func complianceNode(t *testing.T, name string) (*httptest.Server, *obs.Registry) {
	t.Helper()
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	src, err := source.New(source.Config{
		Name:     name,
		Catalog:  cat,
		Policy:   pol,
		Registry: preserve.NewRegistry(),
		Obs:      reg,
		Trace:    obs.NewTracer(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(source.NewHandler(local))
	t.Cleanup(srv.Close)
	return srv, reg
}

// newMediator assembles the mediator over the three nodes: durable state
// under dir, a shared registry and tracer, retries and a fast breaker.
func newMediator(t *testing.T, dir string, reg *obs.Registry, tracer *obs.Tracer, nodes map[string]*httptest.Server) *mediator.Mediator {
	t.Helper()
	var eps []source.Endpoint
	for _, name := range []string{"alpha", "beta", "gamma"} {
		eps = append(eps, source.NewClient(nodes[name].URL, name))
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:         eps,
		LinkageSalt:       salt,
		MaxDisclosure:     0.9,
		SourceTimeout:     10 * time.Second,
		WarehouseCapacity: 8,
		WarehouseTTL:      100,
		PlanCache:         64,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute},
		},
		Durability: &mediator.DurabilityConfig{Dir: dir},
		Obs:        reg,
		Trace:      tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

// postQuery runs one PIQL query against the mediator's HTTP surface.
func postQuery(t *testing.T, base, query, requester string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Requester", requester)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// scrape fetches /metrics and parses every sample line into a
// series -> value map (comments skipped).
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// families counts distinct metric families in a scrape.
func families(samples map[string]float64) map[string]bool {
	fams := map[string]bool{}
	for series := range samples {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		name = strings.TrimSuffix(name, "_bucket")
		name = strings.TrimSuffix(name, "_sum")
		name = strings.TrimSuffix(name, "_count")
		fams[name] = true
	}
	return fams
}

// wantSample asserts one series' value.
func wantSample(t *testing.T, samples map[string]float64, series string, want float64) {
	t.Helper()
	got, ok := samples[series]
	if !ok {
		t.Fatalf("series %s absent from scrape", series)
	}
	if got != want {
		t.Errorf("%s = %v, want %v", series, got, want)
	}
}

// wantAtLeast asserts a series exists with value >= min.
func wantAtLeast(t *testing.T, samples map[string]float64, series string, min float64) {
	t.Helper()
	got, ok := samples[series]
	if !ok {
		t.Fatalf("series %s absent from scrape", series)
	}
	if got < min {
		t.Errorf("%s = %v, want >= %v", series, got, min)
	}
}

// traceJSON mirrors the /debug/trace wire shape.
type traceJSON struct {
	Requester string `json:"requester"`
	Query     string `json:"query"`
	Shard     string `json:"shard"`
	Outcome   string `json:"outcome"`
	Spans     []struct {
		Stage   string `json:"stage"`
		Source  string `json:"source"`
		Outcome string `json:"outcome"`
	} `json:"spans"`
}

func getTraces(t *testing.T, base string, last int) []traceJSON {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/debug/trace?last=%d", base, last))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []traceJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding traces: %v", err)
	}
	return out
}

func (tr traceJSON) span(stage string) (string, bool) {
	for _, sp := range tr.Spans {
		if sp.Stage == stage {
			return sp.Outcome, true
		}
	}
	return "", false
}

// TestPipelineObservabilityEndToEnd is the full scenario. Sub-steps
// share state (the same deployment) so they run in order, not parallel.
func TestPipelineObservabilityEndToEnd(t *testing.T) {
	nodes := map[string]*httptest.Server{}
	srcRegs := map[string]*obs.Registry{}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		srv, reg := complianceNode(t, name)
		nodes[name] = srv
		srcRegs[name] = reg
	}

	dir := t.TempDir()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(32)
	med := newMediator(t, dir, reg, tracer, nodes)
	medSrv := httptest.NewServer(mediator.NewHandler(med))

	// --- Answered release, warehouse repeat, ledger refusal -------------

	if code, body := postQuery(t, medSrv.URL, perTestQuery, "snooper"); code != http.StatusOK {
		t.Fatalf("Figure 1a release should pass: %d %s", code, body)
	}
	if code, _ := postQuery(t, medSrv.URL, perTestQuery, "snooper"); code != http.StatusOK {
		t.Fatalf("warehouse repeat should pass: %d", code)
	}
	code, body := postQuery(t, medSrv.URL, perHMOQuery, "snooper")
	if code != http.StatusForbidden {
		t.Fatalf("Figure 1 combination must be refused: %d %s", code, body)
	}
	if !strings.Contains(body, "combined") {
		t.Errorf("refusal should explain the combination: %s", body)
	}

	samples := scrape(t, medSrv.URL)
	wantSample(t, samples, `piye_mediator_queries_total{outcome="answered"}`, 1)
	wantSample(t, samples, `piye_mediator_queries_total{outcome="warehouse"}`, 1)
	wantSample(t, samples, `piye_mediator_queries_total{outcome="refused"}`, 1)
	wantSample(t, samples, `piye_mediator_refusals_total{reason="ledger-combination"}`, 1)
	wantSample(t, samples, `piye_mediator_refusals_total{reason="timeout"}`, 0)
	// Three parses (the warehouse hit still parses), one warehouse hit.
	wantSample(t, samples, `piye_mediator_stage_seconds_count{stage="parse"}`, 3)
	wantSample(t, samples, `piye_warehouse_hits_total`, 1)
	wantAtLeast(t, samples, `piye_plan_cache_hits_total{scope="mediator"}`, 1)
	// Both fan-outs reached all three sources.
	for _, name := range []string{"alpha", "beta", "gamma"} {
		wantSample(t, samples, fmt.Sprintf(`piye_mediator_source_calls_total{source=%q,outcome="answered"}`, name), 2)
		wantSample(t, samples, fmt.Sprintf(`piye_breaker_state{source=%q}`, name), 0)
	}
	// The ledgered release and history entries hit the WAL.
	wantAtLeast(t, samples, `piye_wal_appends_total{log="mediator"}`, 1)
	wantAtLeast(t, samples, `piye_wal_fsyncs_total{log="mediator"}`, 1)
	if n := len(families(samples)); n < 12 {
		t.Errorf("mediator scrape exposes %d metric families, want >= 12", n)
	}

	// --- Traces: the three queries, newest first ------------------------

	traces := getTraces(t, medSrv.URL, 10)
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	refusedTr, whTr, answeredTr := traces[0], traces[1], traces[2]
	if refusedTr.Outcome != "refused:ledger-combination" {
		t.Errorf("refused trace outcome = %q", refusedTr.Outcome)
	}
	if out, ok := refusedTr.span("ledger"); !ok || out != "refused:ledger-combination" {
		t.Errorf("refused trace ledger span = %q, %v", out, ok)
	}
	if whTr.Outcome != "warehouse" {
		t.Errorf("warehouse trace outcome = %q", whTr.Outcome)
	}
	if out, ok := whTr.span("warehouse"); !ok || out != "answered" {
		t.Errorf("warehouse span = %q, %v", out, ok)
	}
	if out, ok := answeredTr.span("warehouse"); !ok || out != "skipped" {
		t.Errorf("first query's warehouse span = %q, %v (want a recorded miss)", out, ok)
	}
	nSource := 0
	for _, sp := range answeredTr.Spans {
		if sp.Stage == "source" {
			nSource++
			if sp.Outcome != "answered" {
				t.Errorf("source span %s outcome = %q", sp.Source, sp.Outcome)
			}
		}
	}
	if nSource != 3 {
		t.Errorf("answered trace has %d source spans, want 3", nSource)
	}
	for _, stage := range []string{"parse", "route", "fanout", "integrate", "control", "ledger"} {
		if _, ok := answeredTr.span(stage); !ok {
			t.Errorf("answered trace missing %q span", stage)
		}
	}

	// --- Source-side surfaces -------------------------------------------

	srcSamples := scrape(t, nodes["beta"].URL)
	wantSample(t, srcSamples, `piye_source_queries_total{source="beta",outcome="answered"}`, 2)
	wantSample(t, srcSamples, `piye_source_queries_total{source="beta",outcome="refused"}`, 0)
	for _, stage := range []string{"plan", "execute", "preserve"} {
		wantAtLeast(t, srcSamples, fmt.Sprintf(`piye_source_stage_seconds_count{source="beta",stage=%q}`, stage), 2)
	}
	srcTraces := getTraces(t, nodes["beta"].URL, 5)
	if len(srcTraces) != 2 {
		t.Fatalf("beta recorded %d traces, want 2", len(srcTraces))
	}
	for _, stage := range []string{"plan", "execute", "preserve"} {
		if out, ok := srcTraces[0].span(stage); !ok || out != "answered" {
			t.Errorf("beta trace %q span = %q, %v", stage, out, ok)
		}
	}

	// --- Restart: the replayed ledger still refuses, counters continue --

	medSrv.Close()
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}
	med = newMediator(t, dir, reg, tracer, nodes)
	defer med.Close()
	medSrv = httptest.NewServer(mediator.NewHandler(med))
	defer medSrv.Close()

	code, body = postQuery(t, medSrv.URL, perHMOQuery, "snooper")
	if code != http.StatusForbidden || !strings.Contains(body, "combined") {
		t.Fatalf("restarted mediator must replay the refusal: %d %s", code, body)
	}
	samples = scrape(t, medSrv.URL)
	// Same registry, same series: the counter continued across restart.
	wantSample(t, samples, `piye_mediator_refusals_total{reason="ledger-combination"}`, 2)

	// --- Dead source: retries fail, the breaker opens -------------------

	nodes["alpha"].CloseClientConnections()
	nodes["alpha"].Close()
	for i := 0; i < 4; i++ {
		// Distinct requesters bypass the warehouse, forcing fan-out; the
		// two surviving sources keep the system answering.
		code, body := postQuery(t, medSrv.URL, perTestQuery, fmt.Sprintf("prober%d", i))
		if code != http.StatusOK {
			t.Fatalf("prober%d: system should degrade, not fail: %d %s", i, code, body)
		}
	}
	samples = scrape(t, medSrv.URL)
	wantSample(t, samples, `piye_breaker_state{source="alpha"}`, 2)
	wantAtLeast(t, samples, `piye_breaker_transitions_total{source="alpha",to="open"}`, 1)
	wantAtLeast(t, samples, `piye_mediator_source_calls_total{source="alpha",outcome="denied"}`, 2)
	wantSample(t, samples, `piye_breaker_state{source="beta"}`, 0)

	// The last trace shows the skipped source alongside two answers.
	traces = getTraces(t, medSrv.URL, 1)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	skipped := 0
	for _, sp := range traces[0].Spans {
		if sp.Stage == "source" && sp.Source == "alpha" && sp.Outcome == "skipped" {
			skipped++
		}
	}
	if skipped != 1 {
		t.Errorf("last trace records %d skipped alpha spans, want 1 (spans: %+v)", skipped, traces[0].Spans)
	}
}
