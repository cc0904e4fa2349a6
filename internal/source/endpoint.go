package source

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"slices"
	"strings"
	"sync"

	"privateiye/internal/obs"
	"privateiye/internal/psi"
	"privateiye/internal/qcache"
	"privateiye/internal/schemamatch"
	"privateiye/internal/xmltree"
)

// psiBatchBuckets are the batch-size histogram bounds for whole-column
// PSI calls (items per call, powers of two).
var psiBatchBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Endpoint is the mediator's view of a remote source: everything the
// mediation engine of Figure 2(b) needs, whether the source runs
// in-process or behind HTTP. All payloads are XML nodes, so the two
// transports are byte-identical in behaviour.
//
// Every call takes a context: sources are autonomous and therefore
// slow, flaky or dead in practice, and the mediator bounds each call
// with its fan-out's deadline. Implementations must return promptly once
// the context is done (internal/resilience additionally abandons
// implementations that do not).
type Endpoint interface {
	// Name identifies the source.
	Name() string
	// FetchSummary returns the redacted structural summary (partial
	// schema).
	FetchSummary(ctx context.Context) (*xmltree.Summary, error)
	// FetchProfiles returns shareable field profiles for schema matching.
	FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error)
	// Query executes a PIQL fragment and returns the tagged XML answer.
	//
	// The answer may be a node an earlier call returned: a memoised
	// aggregate's, shared with the source's plan memo (Local) or with
	// the client's kept reply (Client). Callers read it and never
	// change it (Clone first).
	Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error)
	// PSISuites lists the PSI group suites this source supports, in
	// preference order. The mediator intersects these across the fleet
	// during schema refresh and fails closed to modp2048 when a source
	// does not answer.
	PSISuites(ctx context.Context) ([]string, error)
	// PSIBlinded returns the source's blinded linkage items for a
	// field, in the named suite ("" = the source's preferred suite),
	// sorted, never in row order. A field the source's policy does not
	// release is refused, as an answer (Retryable() false).
	//
	// Like Query's, its node may be one an earlier call returned, and
	// is read-only for callers.
	PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error)
	// PSIExponentiate raises peer-blinded elements to this source's
	// secret, preserving order.
	PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error)
}

// Local wraps a Source as an in-process Endpoint.
type Local struct {
	Src *Source

	// AdvertisedSuites lists the PSI suites this source offers, in
	// preference order; nil means the default advertisement — the fast
	// EC suite first, then modp2048 as the interop floor. A MODP-only
	// deployment pins this to just modp2048.
	AdvertisedSuites []string

	// Coalesce merges concurrent identical whole-column calls —
	// PSIBlinded for the same field and suite — into one shared
	// computation. Unlike query coalescing at the mediator, nothing here
	// is per-requester (the call does not even carry one), so sharing the
	// result is unconditionally safe; the knob exists because the win
	// only materializes when several integration rounds race.
	Coalesce bool

	mu      sync.Mutex
	parties map[string]*psi.Party   // one per suite, lazily keyed by suite name
	blinded map[blindKey]*keptReply // the last blinded column per (suite, field)
	mBatch  *obs.Histogram          // items per whole-column PSI call; nil-safe
	m304    map[string]*obs.Counter // blinded columns revalidated per suite, beside its party

	cols qcache.Flight[any] // whole-column computations in progress
}

// sharedColumn runs compute once per concurrent burst of identical
// column requests: the first caller computes, the rest wait and share.
func (l *Local) sharedColumn(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	if !l.Coalesce {
		return compute()
	}
	v, _, err := l.cols.Do(ctx, key, l.colObs, compute)
	return v, err
}

// colObs counts one coalesced-column participant by role.
func (l *Local) colObs(leader bool) {
	reg := l.Src.cfg.Obs
	if reg == nil {
		return
	}
	role := "follower"
	if leader {
		role = "leader"
	}
	reg.Help("piye_source_coalesce_total", "Coalesced whole-column linkage computations: leaders computed, followers shared one in flight.")
	reg.Counter("piye_source_coalesce_total", "source", l.Src.Name(), "role", role).Inc()
}

// NewLocal builds a local endpoint. Both trailing parameters are
// ignored and stay only for existing callers: a source ships no linkage
// encodings (the mediator encodes answers itself for fuzzy dedupe), and
// its MODP suite is always modp2048.
func NewLocal(src *Source, _ []byte, _ *psi.Group) (*Local, error) {
	if src == nil {
		return nil, fmt.Errorf("source: nil source")
	}
	return &Local{Src: src}, nil
}

// defaultSuites is the advertisement of a source that pins none.
var defaultSuites = []string{psi.SuiteNameX25519, psi.SuiteNameModP2048}

// Name implements Endpoint.
func (l *Local) Name() string { return l.Src.Name() }

// FetchSummary implements Endpoint.
func (l *Local) FetchSummary(ctx context.Context) (*xmltree.Summary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Src.Summary(), nil
}

// FetchProfiles implements Endpoint.
func (l *Local) FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Src.Profiles(), nil
}

// Query implements Endpoint. Every error but a context error is the
// source's answer to the query — a policy denial, an audit
// refusal, a query it cannot parse — and comes back as one, in the form
// the HTTP handler's 403 takes on the wire. A memoised answer's node is
// shared, and read-only for callers.
func (l *Local) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	ans, err := l.answer(ctx, piqlText, requester)
	if err != nil {
		return nil, err
	}
	return ans.Node, nil
}

// answer is Query's whole path — parse, plan, policy, the sequence
// audit under requester — returning the Answer, whose kept encoding
// POST /query writes when the plan memoised it.
func (l *Local) answer(ctx context.Context, piqlText, requester string) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pq, err := l.Src.plans.Parse(parseKeys, piqlText)
	if err != nil {
		return nil, answerError{fmt.Errorf("source: bad query: %w", err)}
	}
	ans, err := l.Src.execute(pq.Query, pq.Canonical, requester)
	if err != nil {
		return nil, answerError{err}
	}
	return ans, nil
}

// answerError is a source's refusal to answer a query. Asking again gets
// the same answer, and the source did answer, so it says Retryable()
// false: the resilience layer neither retries it nor counts it against
// the source's circuit.
type answerError struct{ error }

func (e answerError) Unwrap() error { return e.error }

// Retryable implements the resilience layer's classification.
func (answerError) Retryable() bool { return false }

// advertised returns the suites this source offers, in preference
// order; callers must not modify it. Every resolvable name in
// AdvertisedSuites is honoured; by default the source leads with the EC
// suite and keeps modp2048 as the floor every peer can fall back to.
func (l *Local) advertised() []string {
	if len(l.AdvertisedSuites) > 0 {
		return l.AdvertisedSuites
	}
	return defaultSuites
}

// PSISuites implements Endpoint.
func (l *Local) PSISuites(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return append([]string(nil), l.advertised()...), nil
}

// suiteFor resolves a requested suite name against the advertisement:
// "" means the source's preferred (first advertised) suite, and a name
// the source does not advertise is refused — a source never serves a
// group its operator did not opt into.
func (l *Local) suiteFor(name string) (psi.Suite, error) {
	adv := l.advertised()
	if name == "" {
		name = adv[0]
	}
	if !slices.Contains(adv, name) {
		return nil, answerError{fmt.Errorf("source %s: psi suite %q not advertised (have %v)", l.Src.Name(), name, adv)}
	}
	return psi.SuiteByName(name)
}

func (l *Local) psiParty(suite psi.Suite) (*psi.Party, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.parties[suite.Name()]; ok {
		return p, nil
	}
	p, err := psi.NewParty(suite, rand.Reader)
	if err != nil {
		return nil, err
	}
	if l.parties == nil {
		l.parties = map[string]*psi.Party{}
	}
	l.parties[suite.Name()] = p
	if reg := l.Src.cfg.Obs; reg != nil {
		// Sampled at scrape time from the party's atomic counters.
		// The party lives as long as the endpoint, so the closures
		// never outlive their subject.
		name, sName, party := l.Src.Name(), suite.Name(), p
		reg.Help("piye_psi_blind_items_total", "Items blinded in PSI rounds (cache hits included).")
		reg.CounterFunc("piye_psi_blind_items_total", func() float64 {
			b, _, _, _ := party.Stats()
			return float64(b)
		}, "source", name, "suite", sName)
		reg.CounterFunc("piye_psi_blind_cache_hits_total", func() float64 {
			_, h, _, _ := party.Stats()
			return float64(h)
		}, "source", name, "suite", sName)
		reg.CounterFunc("piye_psi_exponentiate_items_total", func() float64 {
			_, _, e, _ := party.Stats()
			return float64(e)
		}, "source", name, "suite", sName)
		reg.CounterFunc("piye_psi_exponentiate_cache_hits_total", func() float64 {
			_, _, _, h := party.Stats()
			return float64(h)
		}, "source", name, "suite", sName)
		// A 304 follows the miss that made the party, and reaches none
		// of its counters.
		reg.Help("piye_psi_blinded_not_modified_total", "Conditional GET /psi/blinded answered 304: the caller holds the kept column.")
		if l.m304 == nil {
			l.m304 = map[string]*obs.Counter{}
		}
		l.m304[sName] = reg.Counter("piye_psi_blinded_not_modified_total", "source", name, "suite", sName)
		if l.mBatch == nil {
			reg.Help("piye_psi_batch_items", "Items per whole-column PSI call (batched kernel entry).")
			l.mBatch = reg.Histogram("piye_psi_batch_items", psiBatchBuckets, "source", name)
		}
	}
	return p, nil
}

// maxLinkageItems bounds a whole-column PSI call.
const maxLinkageItems = 1 << 20

// PSIBlinded implements Endpoint. The node may be one an earlier call
// returned, and is read-only for callers.
func (l *Local) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	c, err := l.blindedColumn(ctx, field, suite)
	if err != nil {
		return nil, err
	}
	return c.node, nil
}

// blindKey names a memoised blinded column.
type blindKey struct{ suite, field string }

// keptReply is a reply a source serves again as it stands — a blinded
// column, or a plan's memoised answer — both as the node its in-process
// callers read and as the bytes the HTTP handler writes (WriteNode's
// bytes for the node). version is the data version it was read at. etag
// is a kept reply's strong HTTP entity tag, the digest of body (see
// entityTag); a column that is never kept has none.
type keptReply struct {
	node    *xmltree.Node
	body    string
	version uint64
	etag    string
}

// keep encodes n once, as the reply kept for data version, and tags it.
func keep(n *xmltree.Node, version uint64) *keptReply {
	body := n.String()
	return &keptReply{node: n, body: body, version: version, etag: entityTag(body)}
}

// entityTag is the strong entity tag of body: its SHA-256 digest in
// quoted, unpadded base64url.
func entityTag(body string) string {
	sum := sha256.Sum256([]byte(body))
	return `"` + base64.RawURLEncoding.EncodeToString(sum[:]) + `"`
}

// blindedColumn returns field's blinded column in the named suite. A
// field the policy does not release at least in aggregate
// (Source.blindable) is refused before any suite, column or entity tag is
// looked at, so it gets no 304 either. The party's secret is fixed, so
// the column changes only with the data: one whose data version matches
// the memoised one's is served as it stands, and any other is read,
// blinded, sorted by element encoding (two columns of one table then do
// not join by position), encoded once and kept.
func (l *Local) blindedColumn(ctx context.Context, field, suite string) (*keptReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := l.Src.blindable(field); err != nil {
		return nil, answerError{err}
	}
	s, err := l.suiteFor(suite)
	if err != nil {
		return nil, err
	}
	key := blindKey{s.Name(), field}
	version, keep := l.Src.columnVersion(field)
	if keep {
		l.mu.Lock()
		c := l.blinded[key]
		l.mu.Unlock()
		if c != nil && c.version == version {
			return c, nil
		}
	}
	v, err := l.sharedColumn(ctx, "psi-blind\x00"+s.Name()+"\x00"+field, func() (any, error) {
		p, err := l.psiParty(s)
		if err != nil {
			return nil, err
		}
		vals := l.Src.fieldValues(field, maxLinkageItems)
		l.mBatch.Observe(float64(len(vals)))
		elems := p.BlindBatch(vals)
		a, b := make([]byte, 0, s.ElementSize()), make([]byte, 0, s.ElementSize())
		slices.SortFunc(elems, func(x, y psi.Element) int {
			a, b = s.AppendElement(a[:0], x), s.AppendElement(b[:0], y)
			return bytes.Compare(a, b)
		})
		c := encodeColumn(psi.MarshalElems(s, elems), version)
		if keep {
			c.etag = entityTag(c.body)
			l.mu.Lock()
			if old := l.blinded[key]; old == nil || old.version <= version {
				if l.blinded == nil {
					l.blinded = map[blindKey]*keptReply{}
				}
				l.blinded[key] = c
			}
			l.mu.Unlock()
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*keptReply), nil
}

// columnNotModified counts a 304 to a GET of the blinded column c, in
// its suite.
func (l *Local) columnNotModified(c *keptReply) {
	l.mu.Lock()
	ctr := l.m304[psi.WireSuiteName(c.node)]
	l.mu.Unlock()
	ctr.Inc()
}

// encodeColumn encodes a psi-elems envelope once. Its packed text needs
// no escaping, so it follows the start tag verbatim: the node is pointed
// at it there, and its count copied off the string MarshalElems built,
// so that the column lives in body alone.
func encodeColumn(n *xmltree.Node, version uint64) *keptReply {
	body := n.String()
	if text := body[strings.IndexByte(body, '>')+1:]; strings.HasPrefix(text, n.Text) {
		n.Text = text[:len(n.Text)]
	}
	if count, ok := n.Attr("n"); ok {
		n.SetAttr("n", strings.Clone(count))
	}
	return &keptReply{node: n, body: body, version: version}
}

// PSIExponentiate implements Endpoint. The suite is read off the
// envelope, and an envelope that names none is refused. Every element is
// decoded and validated, and each is answered from the party's
// per-element memo or raised to its secret.
func (l *Local) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	name := psi.WireSuiteName(elems)
	if name == "" {
		return nil, fmt.Errorf("source %s: psi envelope names no suite", l.Src.Name())
	}
	s, err := l.suiteFor(name)
	if err != nil {
		return nil, err
	}
	p, err := l.psiParty(s)
	if err != nil {
		return nil, err
	}
	in, err := psi.UnmarshalElems(elems, s)
	if err != nil {
		return nil, err
	}
	l.mBatch.Observe(float64(len(in)))
	out, err := p.ExponentiateBatch(in)
	if err != nil {
		return nil, err
	}
	return psi.MarshalElems(s, out), nil
}
