package e2e

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
)

// Literals the scrub test's queries carry. Each is true of every row,
// so the queries are answered by both sources, and each is text that no
// surface would print for any other reason.
const (
	scrubString = "scrubliteral-q7"
	scrubNumber = "4827.31"
	scrubQuery  = "FOR //compliance/row WHERE //test != '" + scrubString + "' AND //rate < " + scrubNumber +
		" GROUP BY //test RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
)

// TestTelemetryDoesNotLeakRequestersOrLiterals drives the whole tier,
// router to shards to sources, then reads everything an outsider can
// read without being a requester's own client — every daemon's
// /debug/trace (mounted on the query address) and /metrics, every
// mediator's /history, and the process log — for the requesters' names
// and the queries' literals. The traces and history entries must still
// be there, with pseudonyms and placeholders. No shard mounts a
// /replica/* route.
func TestTelemetryDoesNotLeakRequestersOrLiterals(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	nodes := map[string]*httptest.Server{}
	for _, name := range []string{"alpha", "beta"} {
		nodes[name], _ = complianceNode(t, name)
	}
	shardSrvs := map[string]*httptest.Server{}
	var backends []shard.Backend
	for _, id := range shardPeers {
		_, shardSrvs[id] = newShardMediator(t, t.TempDir(), id, nodes)
		backends = append(backends, shard.Backend{Name: id, URL: shardSrvs[id].URL})
	}
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards: backends,
		Seed:   shard.DefaultSeed,
		Retry:  resilience.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
		Obs:    obs.NewRegistry(),
		Trace:  obs.NewTracer(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtSrv := httptest.NewServer(rt.Handler())
	defer rtSrv.Close()

	// No shard serves a replication surface: it once streamed the raw
	// WAL, names and literals included, to any GET, and one GET naming a
	// higher epoch fenced the shard for good. The queries below must
	// still be answered after the probe.
	for id, srv := range shardSrvs {
		for _, probe := range []struct{ method, path string }{
			{http.MethodGet, "/replica/stream?from=0&epoch=99"},
			{http.MethodGet, "/replica/status"},
			{http.MethodPost, "/replica/fence"},
			{http.MethodPost, "/replica/promote"},
		} {
			req, err := http.NewRequest(probe.method, srv.URL+probe.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s %s: %d, want 404", id, probe.method, probe.path, resp.StatusCode)
			}
		}
	}

	requesters := []string{"scrub-ada-lovelace", "scrub-grace-hopper", "scrub-edsger-dijkstra", "scrub-barbara-liskov"}
	for _, r := range requesters {
		if code, body := postQuery(t, rtSrv.URL, scrubQuery, r); code != http.StatusOK {
			t.Fatalf("%s: %d %s", r, code, body)
		}
	}

	surfaces := map[string]string{"router": rtSrv.URL}
	for id, srv := range shardSrvs {
		surfaces[id] = srv.URL
	}
	for name, srv := range nodes {
		surfaces[name] = srv.URL
	}
	traced, entries := 0, 0
	for who, base := range surfaces {
		paths := []string{"/debug/trace?last=64", "/metrics"}
		if _, isShard := shardSrvs[who]; isShard {
			paths = append(paths, "/history")
			h := get(t, base+"/history")
			entries += strings.Count(h, `requester="r-`)
			if n := strings.Count(h, "<entry "); n != strings.Count(h, "&lt;string&gt;") {
				t.Errorf("%s /history: %d entries, %d with a redacted query", who, n, strings.Count(h, "&lt;string&gt;"))
			}
		}
		for _, path := range paths {
			body := get(t, base+path)
			for _, secret := range append([]string{scrubString, scrubNumber}, requesters...) {
				if strings.Contains(body, secret) {
					t.Errorf("%s %s shows %q", who, path, secret)
				}
			}
		}
		for _, tr := range getTraces(t, base, 64) {
			traced++
			if !strings.HasPrefix(tr.Requester, "r-") || len(tr.Requester) != 18 {
				t.Errorf("%s trace requester %q is not a pseudonym", who, tr.Requester)
			}
			if !strings.Contains(tr.Query, "'<string>'") || !strings.Contains(tr.Query, "<number>") {
				t.Errorf("%s trace query %q lacks its placeholders", who, tr.Query)
			}
		}
	}
	// The router and the owning shard trace each query once, and so does
	// each of the two sources.
	if want := 4 * len(requesters); traced != want {
		t.Errorf("%d traces across the tier, want %d", traced, want)
	}
	// The owning shard keeps one pseudonymous history entry per query.
	if entries != len(requesters) {
		t.Errorf("%d pseudonymous history entries across the shards, want %d", entries, len(requesters))
	}
	log.SetOutput(os.Stderr) // no more writes into logs from here on
	for _, secret := range append([]string{scrubString, scrubNumber}, requesters...) {
		if strings.Contains(logs.String(), secret) {
			t.Errorf("the log shows %q", secret)
		}
	}
}

// get fetches one surface's body.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return string(body)
}
