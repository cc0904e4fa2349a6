package mediator

// The mediator's side of the sharded tier (see internal/shard for the
// ring and the router). Every inference-control store the paper's
// second-level controls consume — the release ledger, the query
// history, the loss budgets — is keyed by requester, so the tier
// decomposes shared-nothing along that key. The invariant this file
// enforces, fail-closed, is OWNERSHIP: a shard answers a requester only
// when the ring says the requester's control state lives here. A shard
// that has not seen a requester's releases cannot refuse their
// combination, so answering a misrouted requester could only ever
// weaken a refusal — the gate turns that into a retryable 503
// (NotOwner), never a silent grant and never a 403.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/refusal"
	"privateiye/internal/shard"
)

// ShardConfig places one mediator in a sharded tier. Every shard and
// every router in the tier must be configured with the same Peers and
// Seed, or their rings disagree on ownership and the gate refuses
// traffic the router believed well-placed.
type ShardConfig struct {
	// ID is this shard's name in the ring; it must appear in Peers.
	ID string
	// Peers are the names of every shard in the tier, this one included.
	Peers []string
	// Seed is the ring placement seed (shard.DefaultSeed when 0 is
	// meant, set it explicitly — 0 is a valid seed).
	Seed uint64
	// PeerURLs maps peer names to their base URLs, fixed at New. The
	// gate needs them for the drain handshake: a router's
	// X-Shard-Rerouted-From header is a CLAIM that some shards are
	// draining, and this shard confirms the claim against each named
	// peer's own /shard/status — the only place a shard's drain state is
	// kept — before taking ownership of a re-routed requester. Without
	// URLs the claim is unverifiable and every re-route is refused,
	// fail-closed; plain routing and the ownership gate work regardless.
	// Undrain uses the same URLs to check peers for stranded re-routed
	// state.
	PeerURLs map[string]string
}

// drainVerifyTTL is how long a peer's "not draining" (or unreachable)
// answer is cached, so a dead peer costs one status fetch, not one per
// query. A "draining" answer honours a re-route and is never cached, so
// none outlives the peer's undrain; the TTL bounds how long after a
// peer starts draining its re-routes are refused.
const drainVerifyTTL = 2 * time.Second

// NotOwnerError refuses a query that reached a shard other than the
// requester's ring owner. Fail-closed and retryable: the query is fine,
// it knocked on the wrong door, and the router should re-route it. The
// phrase "is not the owner of requester" is wire contract for
// refusal.ClassifyString.
type NotOwnerError struct {
	Shard     string
	Requester string
	Owner     string
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("mediator: shard %s is not the owner of requester %s (owner %s)", e.Shard, e.Requester, e.Owner)
}

// RefusalReason implements refusal.Reasoner.
func (e *NotOwnerError) RefusalReason() refusal.Reason { return refusal.NotOwner }

// DrainingError refuses a NEW requester (one with no durable state
// here) on a draining shard: the shard is shedding ownership, and the
// router should place the requester with the drain-adjusted owner. A
// requester that already has state here keeps being served through the
// drain — moving it would strand the very ledger the refusals need.
// The phrase "draining: not accepting" is wire contract for
// refusal.ClassifyString.
type DrainingError struct {
	Shard string
}

func (e *DrainingError) Error() string {
	return fmt.Sprintf("mediator: shard %s draining: not accepting new requesters", e.Shard)
}

// RefusalReason implements refusal.Reasoner. A drain refusal is a
// routing fact, not a privacy verdict, so it shares the retryable
// NotOwner reason (503, never 403).
func (e *DrainingError) RefusalReason() refusal.Reason { return refusal.NotOwner }

// shardState is the mediator's membership view, set once in New.
type shardState struct {
	id       string
	ring     *shard.Ring
	client   *http.Client
	peerURLs map[string]string

	// mu guards when each peer last failed to confirm it is draining:
	// the only copy of another shard's drain state here, and one that
	// can only refuse. now reads the clock those times come from (a test
	// substitutes its own).
	mu     sync.Mutex
	denied map[string]time.Time
	now    func() time.Time

	// Shard metric handles (nil, so no-ops, when unobserved).
	drainingGauge *obs.Gauge
	notOwner      *obs.Counter
	drainRefused  *obs.Counter
	rerouted      *obs.Counter
	rerouteDenied *obs.Counter
}

// reroutedKey carries the router's drain assertion through the request
// context (see WithReroutedFrom).
type reroutedKey struct{}

// WithReroutedFrom attaches the router's drain assertion to a query
// context: the names of the draining shards the router routed around.
// The HTTP handler populates it from the X-Shard-Rerouted-From header.
func WithReroutedFrom(ctx context.Context, drained []string) context.Context {
	if len(drained) == 0 {
		return ctx
	}
	return context.WithValue(ctx, reroutedKey{}, drained)
}

// ReroutedFrom reads the router's drain assertion back (nil when the
// query arrived unrouted or undrained).
func ReroutedFrom(ctx context.Context) []string {
	v, _ := ctx.Value(reroutedKey{}).([]string)
	return v
}

// setupShard validates the config and builds the ring. Called from New
// after durability replay so the gate's first ownership answers already
// see the recovered requester state.
func (m *Mediator) setupShard(cfg ShardConfig) error {
	if cfg.ID == "" {
		return fmt.Errorf("mediator: shard id must be non-empty")
	}
	ring := shard.New(cfg.Seed, shard.DefaultVnodes)
	self := false
	for _, p := range cfg.Peers {
		if err := ring.Add(p); err != nil {
			return fmt.Errorf("mediator: shard peer: %w", err)
		}
		if p == cfg.ID {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("mediator: shard peers %v do not include this shard's id %q", cfg.Peers, cfg.ID)
	}
	s := &shardState{
		id:       cfg.ID,
		ring:     ring,
		client:   &http.Client{Timeout: 2 * time.Second}, // peer status checks
		peerURLs: map[string]string{},
		denied:   map[string]time.Time{},
		now:      time.Now,
	}
	for name, u := range cfg.PeerURLs {
		s.peerURLs[name] = strings.TrimRight(u, "/")
	}
	if reg := m.cfg.Obs; reg != nil {
		reg.Help("piye_shard_info", "Shard membership: one series per known peer, value 1; the self label marks this shard.")
		reg.Help("piye_shard_draining", "1 while this shard is draining (refusing new requesters), else 0.")
		reg.Help("piye_shard_not_owner_total", "Queries refused because the requester hashes to a different shard.")
		reg.Help("piye_shard_draining_refusals_total", "New requesters refused while draining (re-routed by the router).")
		reg.Help("piye_shard_rerouted_accepted_total", "Queries accepted as the drain-adjusted owner on a verified router re-route.")
		reg.Help("piye_shard_reroute_denied_total", "Router drain assertions refused: the claimed shard was not verifiably draining, or placement disagreed.")
		for _, p := range cfg.Peers {
			selfLabel := "false"
			if p == cfg.ID {
				selfLabel = "true"
			}
			reg.Gauge("piye_shard_info", "shard", cfg.ID, "peer", p, "self", selfLabel).Set(1)
		}
		s.drainingGauge = reg.Gauge("piye_shard_draining", "shard", cfg.ID)
		s.notOwner = reg.Counter("piye_shard_not_owner_total", "shard", cfg.ID)
		s.drainRefused = reg.Counter("piye_shard_draining_refusals_total", "shard", cfg.ID)
		s.rerouted = reg.Counter("piye_shard_rerouted_accepted_total", "shard", cfg.ID)
		s.rerouteDenied = reg.Counter("piye_shard_reroute_denied_total", "shard", cfg.ID)
	}
	m.shard = s
	m.markDraining(m.draining.Load()) // as recovered
	return nil
}

// shardGate is the ownership check, run on every query after the role
// gate and before any pipeline stage (a misrouted query must not cost a
// parse or a fan-out). Unsharded mediators pay one nil check.
//
// The decision table:
//
//	full-ring owner, not draining          -> serve
//	full-ring owner, draining, has state   -> serve (finish what we own)
//	not owner, no drain asserted           -> NotOwnerError
//	owner or re-routed here, draining, new -> DrainingError (router re-routes)
//	not owner, router asserted a drain,
//	  every shard ranked ahead of us is in
//	  the assertion AND confirmed draining,
//	  holding no state for the requester,
//	  by its own /shard/status             -> serve (take ownership)
//	anything else                          -> NotOwnerError
//
// The drain re-route is verified, not trusted, in two parts. Placement:
// the X-Shard-Rerouted-From header only names which shards to exclude,
// and the gate recomputes ownership over the remainder with the same
// pure placement function the router used. Drain truth: each excluded
// shard that actually ranks ahead of this one must CONFIRM it is
// draining via its own /shard/status, on this call (only a denial is
// cached, see drainVerifyTTL), and that it holds no state for the
// requester — a draining shard keeps serving the requesters it holds,
// so the router never re-routes one of them, and adopting one here
// would answer it from a fresh ledger. The header is a claim, not a
// credential, and any HTTP client can send it. A forged, stale, or
// unverifiable assertion can only cause a refusal (fail-closed), never
// make this shard serve a requester whose control state lives on
// another shard.
func (m *Mediator) shardGate(ctx context.Context, requester string) error {
	s := m.shard
	if s == nil {
		return nil
	}
	owner, err := s.ring.Lookup(requester)
	if err != nil {
		// Unreachable in a validated config (the ring always holds self),
		// but fail closed rather than serve unowned.
		return &NotOwnerError{Shard: s.id, Requester: requester, Owner: "?"}
	}
	drained := ReroutedFrom(ctx)
	switch {
	case owner != s.id && len(drained) == 0: // misrouted, nothing claimed
	case m.draining.Load() && !m.hasRequesterState(requester):
		s.drainRefused.Inc()
		return &DrainingError{Shard: s.id}
	case owner == s.id:
		return nil
	case m.verifyReroute(ctx, requester, drained):
		s.rerouted.Inc()
		return nil
	default:
		s.rerouteDenied.Inc()
	}
	s.notOwner.Inc()
	return &NotOwnerError{Shard: s.id, Requester: requester, Owner: owner}
}

// verifyReroute decides whether this shard may take ownership of a
// requester the full ring places elsewhere, given the router's asserted
// drained set. It walks the requester's preference chain: every shard
// ranked ahead of this one must be named in the assertion AND confirm,
// itself, that it would turn the requester away as draining. Only
// load-bearing exclusions are
// checked — names in the assertion that never rank ahead of us are
// irrelevant and cost nothing.
func (m *Mediator) verifyReroute(ctx context.Context, requester string, asserted []string) bool {
	s := m.shard
	claimed := make(map[string]bool, len(asserted))
	for _, name := range asserted {
		claimed[strings.TrimSpace(name)] = true
	}
	var excluded []string
	for i := 0; i < s.ring.Len(); i++ {
		owner, err := s.ring.LookupExcluding(requester, excluded)
		if err != nil {
			return false
		}
		if owner == s.id {
			return true
		}
		if !claimed[owner] || !s.peerDrainsFor(ctx, owner, requester) {
			return false
		}
		excluded = append(excluded, owner)
	}
	return false
}

// peerDrainsFor confirms a drain claim with the claimed shard itself:
// read the draining flag, and whether it holds the requester's state,
// off its /shard/status. A "not draining" answer (failures included) is
// cached for drainVerifyTTL, so a dead peer is not fetched once per
// query; a confirmation never is — remembered past the peer's undrain
// it would adopt a requester whose ledger lives on the live owner — and
// neither is "holds state", which is about one requester. No URL,
// unreachable, or non-200 all answer false: refused. A fetch cut short
// by the caller's own context says nothing about the peer and records
// no denial.
func (s *shardState) peerDrainsFor(ctx context.Context, name, requester string) bool {
	s.mu.Lock()
	deniedAt := s.denied[name] // the zero time when never denied
	s.mu.Unlock()
	if s.now().Sub(deniedAt) < drainVerifyTTL {
		return false
	}
	st, _, _ := s.peerStatus(ctx, name, "?requester="+url.QueryEscape(requester))
	draining := st != nil && st.Draining
	if !draining && ctx.Err() == nil {
		s.mu.Lock()
		s.denied[name] = s.now()
		s.mu.Unlock()
	}
	return draining && !st.Holds
}

// errNoPeerURL is peerStatus's answer for a peer without a configured URL.
var errNoPeerURL = errors.New("no URL configured")

// peerStatus reads a peer's GET /shard/status (query "?misplaced=1" adds
// the misplaced-state view, "?requester=" whether it holds that
// requester's state): the one way this shard learns another's
// state. st is non-nil only for a 200 whose body decodes; code is the
// HTTP status (0 when the request never got an answer, err says why).
func (s *shardState) peerStatus(ctx context.Context, name, query string) (st *ShardStatus, code int, err error) {
	url, ok := s.peerURLs[name]
	if !ok {
		return nil, 0, errNoPeerURL
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/shard/status"+query, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out ShardStatus
	decodeErr := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&out)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || decodeErr != nil {
		return nil, resp.StatusCode, nil
	}
	return &out, resp.StatusCode, nil
}

// hasRequesterState reports whether this shard holds durable control
// state for the requester — a query history or ledgered releases, both
// rebuilt from snapshot+WAL replay at startup. This is what makes a
// drain safe: requesters with state stay until the operator retires the
// shard, requesters without state lose nothing by being placed
// elsewhere. O(1): the history interns requesters through a map, and
// the ledger is already keyed by requester.
func (m *Mediator) hasRequesterState(requester string) (ok bool) {
	m.readHistory(func(h *history) { _, ok = h.reqID[requester] })
	if !ok {
		m.ledger.read(func(l *releaseLedger) { _, ok = l.byRequester[requester] })
	}
	return ok
}

// Drain marks this shard draining: in-flight and stateful requesters
// keep being served, new requesters are refused with DrainingError for
// the router to re-route. Idempotent. No-op error when unsharded.
func (m *Mediator) Drain() error {
	if m.shard == nil {
		return fmt.Errorf("mediator: not sharded")
	}
	return m.logDraining(true)
}

// logDraining records the drain mark before it takes effect. A mark the
// log cannot record is refused and the shard stays as it was: a drain
// that a restart would forget must not start re-routing newcomers.
func (m *Mediator) logDraining(on bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dlog != nil {
		if err := m.logRecord(walRecord{Kind: kindDrain, Draining: &on}); err != nil {
			return fmt.Errorf("mediator: recording the drain mark: %w", err)
		}
	}
	m.markDraining(on)
	return nil
}

// markDraining sets the drain mark, live or recovered alike.
func (m *Mediator) markDraining(on bool) {
	m.draining.Store(on)
	if m.shard != nil {
		v := 0.0
		if on {
			v = 1
		}
		m.shard.drainingGauge.Set(v)
	}
}

// Undrain clears the drain mark — but only after confirming no peer
// holds control state this shard would reclaim. A requester re-routed
// during the drain built their ledger and history on the drain-adjusted
// owner; once the full ring applies again, THIS shard would serve them
// from a fresh ledger while their real release history sits elsewhere —
// exactly the refusal-weakening sharding exists to prevent. So undrain
// asks every peer for its misplaced-state view (/shard/status?
// misplaced=1) and refuses, fail-closed, when any peer reports state
// owned here, when a peer cannot be reached, or when no peer URLs are
// configured (other shards may still have verified re-routes against
// this one). force skips the check: for the operator who has migrated
// the stranded state by hand, or accepts the loss knowingly.
func (m *Mediator) Undrain(ctx context.Context, force bool) error {
	s := m.shard
	if s == nil {
		return fmt.Errorf("mediator: not sharded")
	}
	if !force {
		if err := m.strandedByUndrain(ctx); err != nil {
			return err
		}
	}
	return m.logDraining(false)
}

// strandedByUndrain is Undrain's safety check: an error describes the
// re-routed requester state that undraining would strand (or why it
// could not be ruled out). The phrase "undrain refused" is part of the
// admin wire surface — runbooks grep for it.
func (m *Mediator) strandedByUndrain(ctx context.Context) error {
	s := m.shard
	if len(s.peerURLs) == 0 {
		return fmt.Errorf("mediator: undrain refused: no shard peer URLs configured, so re-routed requester state stranded on the drain-adjusted owners cannot be ruled out (migrate state or force)")
	}
	for _, mem := range s.ring.Members() {
		if mem.Name == s.id {
			continue
		}
		st, code, err := s.peerStatus(ctx, mem.Name, "?misplaced=1")
		if errors.Is(err, errNoPeerURL) {
			return fmt.Errorf("mediator: undrain refused: no URL configured for peer %s, cannot confirm it holds no re-routed state for this shard (migrate state or force)", mem.Name)
		}
		if err != nil {
			return fmt.Errorf("mediator: undrain refused: cannot confirm peer %s holds no re-routed state: %v (migrate state or force)", mem.Name, err)
		}
		if st == nil {
			return fmt.Errorf("mediator: undrain refused: peer %s status unreadable (HTTP %d): cannot confirm it holds no re-routed state (migrate state or force)", mem.Name, code)
		}
		if stranded := st.Misplaced[s.id]; len(stranded) > 0 {
			return fmt.Errorf("mediator: undrain refused: peer %s holds control state for requester(s) %s that the full ring places on this shard; undraining would serve them from a fresh ledger (migrate state or force)",
				mem.Name, strings.Join(stranded, ", "))
		}
	}
	return nil
}

// ShardStatus is the admin view of this shard's membership.
type ShardStatus struct {
	ID       string         `json:"id"`
	Draining bool           `json:"draining"`
	Seed     uint64         `json:"seed"`
	Peers    []shard.Member `json:"peers"`
	// Misplaced maps full-ring owner -> requesters whose control state
	// lives HERE although the full ring places them on that owner
	// (state adopted through drain re-routes, or left behind by a
	// membership change). Populated only on request
	// (/shard/status?misplaced=1) — computing it walks every requester
	// with state, which the hot path must never pay.
	Misplaced map[string][]string `json:"misplaced,omitempty"`
	// Holds reports whether this shard holds control state for the
	// requester named in /shard/status?requester= — a draining shard
	// keeps serving those, so a re-route of one is never genuine.
	Holds bool `json:"holds,omitempty"`
}

// ShardInfo reports the shard view (nil when unsharded).
func (m *Mediator) ShardInfo() *ShardStatus {
	s := m.shard
	if s == nil {
		return nil
	}
	return &ShardStatus{
		ID:       s.id,
		Draining: m.draining.Load(),
		Seed:     s.ring.Seed(),
		Peers:    s.ring.Members(),
	}
}

// ShardMisplaced computes the misplaced-state view for ShardStatus:
// every requester with durable control state here whose full-ring owner
// is another shard, grouped by that owner. Nil when unsharded; empty
// when all local state is owned here. O(requesters with state) — admin
// surface only.
func (m *Mediator) ShardMisplaced() map[string][]string {
	s := m.shard
	if s == nil {
		return nil
	}
	seen := map[string]bool{}
	m.readHistory(func(h *history) {
		for _, r := range h.reqs {
			seen[r] = true
		}
	})
	m.ledger.read(func(l *releaseLedger) {
		for r := range l.byRequester {
			seen[r] = true
		}
	})
	out := map[string][]string{}
	for r := range seen {
		owner, err := s.ring.Lookup(r)
		if err != nil || owner == s.id {
			continue
		}
		out[owner] = append(out[owner], r)
	}
	for _, rs := range out {
		sort.Strings(rs)
	}
	return out
}
