package e2e

import (
	"context"
	"encoding/base64"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/core"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"

	"net/http/httptest"
)

// complianceConfig is one compliance source: Figure 1's table, open to
// aggregate research queries.
func complianceConfig(t *testing.T, name string) source.Config {
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
	return source.Config{Name: name, Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()}
}

// suiteHandler serves one compliance source with an explicit PSI suite
// advertisement (nil = the production default: x25519 preferred,
// modp2048 floor).
func suiteHandler(t *testing.T, name string, advertised []string) http.Handler {
	t.Helper()
	src, err := source.New(complianceConfig(t, name))
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	local.AdvertisedSuites = advertised
	return source.NewHandler(local)
}

// suiteNode serves suiteHandler over HTTP. It models the fleet-upgrade
// scenario: a node still running an older build advertises what that
// build could run.
func suiteNode(t *testing.T, name string, advertised []string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(suiteHandler(t, name, advertised))
	t.Cleanup(srv.Close)
	return srv
}

// summaryNode is a current node whose GET /summary answers only the
// <path> children of its own answer, followed by extra.
func summaryNode(t *testing.T, name string, extra ...*xmltree.Node) *httptest.Server {
	t.Helper()
	h := suiteHandler(t, name, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/summary" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		n, err := xmltree.ParseBytes(rec.Body.Bytes())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out := xmltree.NewElem("summary").Append(n.ChildrenNamed("path")...)
		source.WriteNode(w, out.Append(extra...))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// noSuitesNode is a node from a build before suite negotiation: its
// GET /summary is the summary alone, paths only, with no profiles and
// no suites beside it.
func noSuitesNode(t *testing.T, name string) *httptest.Server {
	t.Helper()
	return summaryNode(t, name)
}

func suiteMediator(t *testing.T, nodes map[string]*httptest.Server) *mediator.Mediator {
	t.Helper()
	var eps []source.Endpoint
	for name, srv := range nodes {
		eps = append(eps, source.NewClient(srv.URL, name))
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:     eps,
		LinkageSalt:   salt,
		SourceTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

// TestMixedSuiteFleetNegotiatesDown is the interop acceptance test for
// the suite rollout: one legacy MODP-only source and one current source
// behind an EC-preferring mediator. The fleet must negotiate down to
// the legacy group, private overlap must still be exact, and ordinary
// mediated queries must keep answering — a mixed fleet degrades, it
// does not break.
func TestMixedSuiteFleetNegotiatesDown(t *testing.T) {
	legacy := suiteNode(t, "legacy", []string{psi.SuiteNameModP2048})
	modern := suiteNode(t, "modern", nil)
	med := suiteMediator(t, map[string]*httptest.Server{"legacy": legacy, "modern": modern})

	if got := med.PSISuite(); got != psi.SuiteNameModP2048 {
		t.Fatalf("negotiated suite = %q, want %q (the legacy source cannot do better)", got, psi.SuiteNameModP2048)
	}

	ctx := context.Background()
	n, err := med.Overlap(ctx, "legacy", "modern", "hmo")
	if err != nil {
		t.Fatalf("overlap on the downgraded suite: %v", err)
	}
	if n != len(clinical.HMOs) {
		t.Fatalf("overlap = %d distinct hmo values, want %d", n, len(clinical.HMOs))
	}

	// The protocol messages really are in the negotiated group: the
	// envelope names it and its packed text is n 2048-bit residues.
	cli := source.NewClient(legacy.URL, "legacy")
	elems, err := cli.PSIBlinded(ctx, "hmo", med.PSISuite())
	if err != nil {
		t.Fatal(err)
	}
	if got := psi.WireSuiteName(elems); got != psi.SuiteNameModP2048 {
		t.Fatalf("envelope suite = %q, want %q", got, psi.SuiteNameModP2048)
	}
	if n, _ := strconv.Atoi(elems.Attrs["n"]); len(elems.Children) != 0 || n == 0 || len(elems.Text) != base64.RawStdEncoding.EncodedLen(n*256) {
		t.Fatalf("envelope of n=%d: %d children, %d characters; want one text of %d 256-byte elements", n, len(elems.Children), len(elems.Text), n)
	}

	// And the rest of the mediation pipeline is untouched by the
	// downgrade: an aggregate query still answers through both sources.
	out, err := med.Query(perTestQuery, "analyst")
	if err != nil {
		t.Fatalf("mediated query on the mixed fleet: %v", err)
	}
	if len(out.Answered) != 2 {
		t.Fatalf("answered sources = %v, want both", out.Answered)
	}
}

// In-process sources and a remote node pinned to modp2048 in one fleet:
// an in-process source advertises what a node does, [x25519 modp2048],
// so the fleet negotiates modp2048 and the overlap across the two kinds
// of source is exact.
func TestMixedSuiteFleetWithInProcessSources(t *testing.T) {
	pinned := suiteNode(t, "pinned", []string{psi.SuiteNameModP2048})
	sys, err := core.NewSystem(core.SystemConfig{
		Sources: []source.Config{complianceConfig(t, "inproc")},
		Remotes: []core.RemoteSource{{Name: "pinned", URL: pinned.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	med := sys.Mediator()
	if got := med.PSISuite(); got != psi.SuiteNameModP2048 {
		t.Fatalf("negotiated suite = %q, want %q", got, psi.SuiteNameModP2048)
	}
	n, err := med.Overlap(context.Background(), "inproc", "pinned", "hmo")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(clinical.HMOs) {
		t.Fatalf("overlap = %d, want %d", n, len(clinical.HMOs))
	}
}

// A build before x25519 advertised [p256 modp2048]. This build cannot run
// p256, so a fleet with such sources in it, old sources only included,
// must negotiate the modp2048 floor and keep the overlap exact — not
// pick p256 and fail every overlap on the relay's width check. A node
// from before negotiation, whose summary carries no suites, is held to
// the floor by schema refresh, and so is one whose advertisement is
// empty or names only suites this build does not run.
func TestOldCurveFleetFallsToTheFloor(t *testing.T) {
	old := []string{"p256", psi.SuiteNameModP2048}
	for name, fleet := range map[string]func(t *testing.T) [2]*httptest.Server{
		"one old source": func(t *testing.T) [2]*httptest.Server {
			return [2]*httptest.Server{suiteNode(t, "alpha", old), suiteNode(t, "beta", nil)}
		},
		"all old": func(t *testing.T) [2]*httptest.Server {
			return [2]*httptest.Server{suiteNode(t, "alpha", old), suiteNode(t, "beta", old)}
		},
		"no suites route": func(t *testing.T) [2]*httptest.Server {
			return [2]*httptest.Server{noSuitesNode(t, "alpha"), suiteNode(t, "beta", nil)}
		},
		"empty suites": func(t *testing.T) [2]*httptest.Server {
			return [2]*httptest.Server{summaryNode(t, "alpha", xmltree.NewElem("psi-suites")), suiteNode(t, "beta", nil)}
		},
		"unknown suites only": func(t *testing.T) [2]*httptest.Server {
			unknown := xmltree.NewElem("psi-suites").Append(xmltree.NewText("s", "p256"), xmltree.NewText("s", "p384"))
			return [2]*httptest.Server{summaryNode(t, "alpha", unknown), suiteNode(t, "beta", nil)}
		},
	} {
		t.Run(name, func(t *testing.T) {
			nodes := fleet(t)
			med := suiteMediator(t, map[string]*httptest.Server{"alpha": nodes[0], "beta": nodes[1]})
			if got := med.PSISuite(); got != psi.SuiteNameModP2048 {
				t.Fatalf("negotiated suite = %q, want %q", got, psi.SuiteNameModP2048)
			}
			n, err := med.Overlap(context.Background(), "alpha", "beta", "hmo")
			if err != nil {
				t.Fatal(err)
			}
			if n != len(clinical.HMOs) {
				t.Fatalf("overlap = %d, want %d", n, len(clinical.HMOs))
			}
		})
	}
}

// TestMixedSuiteAllECFleetPrefersX25519 is the matching upgrade-complete
// case: when every source advertises the curve, negotiation picks it
// and the wire carries 32-byte u-coordinates.
func TestMixedSuiteAllECFleetPrefersX25519(t *testing.T) {
	a := suiteNode(t, "alpha", nil)
	b := suiteNode(t, "beta", nil)
	med := suiteMediator(t, map[string]*httptest.Server{"alpha": a, "beta": b})

	if got := med.PSISuite(); got != psi.SuiteNameX25519 {
		t.Fatalf("negotiated suite = %q, want %q", got, psi.SuiteNameX25519)
	}

	ctx := context.Background()
	n, err := med.Overlap(ctx, "alpha", "beta", "hmo")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(clinical.HMOs) {
		t.Fatalf("overlap = %d, want %d", n, len(clinical.HMOs))
	}

	cli := source.NewClient(a.URL, "alpha")
	elems, err := cli.PSIBlinded(ctx, "hmo", med.PSISuite())
	if err != nil {
		t.Fatal(err)
	}
	if got := psi.WireSuiteName(elems); got != psi.SuiteNameX25519 {
		t.Fatalf("envelope suite = %q, want %q", got, psi.SuiteNameX25519)
	}
	if n, _ := strconv.Atoi(elems.Attrs["n"]); len(elems.Children) != 0 || n == 0 || len(elems.Text) != base64.RawStdEncoding.EncodedLen(n*32) {
		t.Fatalf("envelope of n=%d: %d children, %d characters; want one text of %d 32-byte u-coordinates", n, len(elems.Children), len(elems.Text), n)
	}
}

// No build has a 768-bit group any more, and none of the three places a
// suite can be named by configuration may resolve one: mediator.Config,
// the facade's SystemConfig, and piye-source's -psi-suite (piye-mediator
// has no suite flag; it prefers the default and follows its sources'
// pins).
func TestTestGroupIsNotConfigurable(t *testing.T) {
	const want = `unknown suite "modp768"`
	refused := func(entry string, err error, output string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted a 768-bit group", entry)
		} else if !strings.Contains(err.Error()+output, want) {
			t.Errorf("%s: want %s, got %v %s", entry, want, err, output)
		}
	}
	node := suiteNode(t, "alpha", nil)
	_, err := mediator.New(mediator.Config{
		Endpoints: []source.Endpoint{source.NewClient(node.URL, "alpha")},
		PSISuite:  "modp768",
	})
	refused("mediator.Config.PSISuite", err, "")
	_, err = core.NewSystem(core.SystemConfig{
		Remotes:  []core.RemoteSource{{Name: "alpha", URL: node.URL}},
		Mediator: mediator.Config{PSISuite: "modp768"},
	})
	refused("core.SystemConfig.Mediator.PSISuite", err, "")
	if testing.Short() {
		t.Skip("daemon flags need a go build")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "privateiye/cmd/piye-source").CombinedOutput(); err != nil {
		t.Fatalf("building the source daemon: %v\n%s", err, out)
	}
	// A daemon that accepted the suite would serve forever; the deadline
	// turns that into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, filepath.Join(bin, "piye-source"),
		"-rows", "10", "-addr", "127.0.0.1:0", "-psi-suite", "modp768").CombinedOutput()
	refused("piye-source -psi-suite", err, string(out))
}
