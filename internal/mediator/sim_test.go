package mediator

// The privacy contract as one executable invariant (DESIGN.md §16).
//
// A schedule is a list of steps — queries from several requesters,
// interleaved with features and faults — run against a real tier: three
// sharded mediators with durable state, each query sent to its
// requester's ring owner as piye-router sends it, over one audited
// source. The harness records what each
// requester was actually given, by any node and across restarts, and
// after every schedule checks:
//
//	(i)   the Figure 1 attacker of internal/attack, handed the union of
//	      a requester's answers, pins no hidden cell to the threshold;
//	(ii)  a (requester, query) pair an inference control refused is
//	      never answered afterwards, by any node;
//	(iii) a node recovered from a crash holds every release and history
//	      entry acknowledged before it, in order, and every record its
//	      log acknowledged (a restart is a power cut: it loses what no
//	      fsync covered).
//
// Schedules come from one typed table (TestContract: scripts with
// expected outcomes, each row naming the example tests it replaced),
// from a committed corpus of shrunk schedules that once failed
// (testdata/sim_corpus.txt), and from a seeded generator
// (TestContractSweep; `make sim` runs the long sweep).
//
// A schedule is written one step per ";", tokens separated by spaces,
// an optional trailing "=outcome" (ok, a refusal.Reason, crashed for a
// compaction, - for a step that did nothing):
//
//	ask R Q          R asks query kind Q at R's ring owner
//	twin R Q         two identical asks of R coalesced into one execution
//	again R Q        R asks Q, then a requester never seen before that
//	                 R's owner owns asks Q over the unchanged source (the
//	                 outcome is the second ask's; "a|b" when they differ)
//	hang, unhang     the source stops answering, or answers again
//	tick             the clock moves 5s (breaker cool-down)
//	crash S P        append failpoint P is armed on S's log
//	compact S P R Q  S snapshots with R's Q landing between capture and
//	                 install, then dies at snapshot failpoint P (- = none)
//	restart S        S's node closes and reopens over its state dir
//	prefer           a data subject's preference is added at the source
//	solves S         S's combination-check pairs, as "misses/hits" of its
//	                 verdict memo
//	memo S           how many answers S published from its kept
//	                 integration (DESIGN.md §8)
//	verdicts R R2    ok when R's and R2's last ledger-combination refusals
//	                 read one Disclosure (- if either has none)
//
// S is a shard name or @R, R's ring owner.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privateiye/internal/attack"
	"privateiye/internal/audit"
	"privateiye/internal/clinical"
	"privateiye/internal/durable"
	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/refusal"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

var (
	simSchedules = flag.Int("sim.schedules", 4, "generated schedules TestContractSweep runs")
	simSeed      = flag.Uint64("sim.seed", 1, "first seed of TestContractSweep")
)

// simQueries is the closed catalogue of query kinds. The h kinds ask the
// party axis one group at a time, which the ledger does not combine yet
// (classifyRelease drops a single-group release), so the generator
// leaves them out. 1bx asks the party means over two of the three tests.
var simQueries = map[string]string{
	"1a":      perTestQuery,
	"1a+":     "FOR  //compliance/row GROUP BY //test   RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9",
	"1b":      perHMOQuery,
	"1bx":     "FOR //compliance/row WHERE //test != 'Eye Exam' GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9",
	"n":       "FOR //compliance/row GROUP BY //test RETURN COUNT(*) AS n PURPOSE research MAXLOSS 0.9",
	"sel":     "FOR //compliance/row WHERE //rate > 50 GROUP BY //test RETURN COUNT(*) AS n PURPOSE research MAXLOSS 0.9",
	"cell":    "FOR //compliance/row WHERE //hmo = 'HMO1' AND //test = 'HbA1c' RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9",
	"rowcell": "FOR //row WHERE //hmo = 'HMO1' AND //test = 'HbA1c' RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9",
	"ws":      "FOR //compliance/row WHERE //hmo = 'HMO1 ' GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9",
	"h1":      "FOR //compliance/row WHERE //hmo = 'HMO1' GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9",
	"h2":      "FOR //compliance/row WHERE //hmo = 'HMO2' GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9",
	"h3":      "FOR //compliance/row WHERE //hmo = 'HMO3' GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9",
}

// simCellKinds aggregate over exactly one hidden cell: any answer pins it.
var simCellKinds = map[string]bool{"cell": true, "rowcell": true}

// simVerdicts are the refusals of the inference controls, which only
// ever grow with a requester's history; invariant (ii) holds them.
var simVerdicts = map[string]bool{
	string(refusal.LedgerCombination): true, string(refusal.LedgerUnverifiable): true, string(refusal.AuditSetSize): true,
	string(refusal.AuditOverlap): true, string(refusal.AuditCompromise): true,
}

type simStep struct {
	op   string
	args []string
	want string
}

func (s simStep) String() string {
	out := strings.Join(append([]string{s.op}, s.args...), " ")
	if s.want != "" {
		out += " =" + s.want
	}
	return out
}

func parseSchedule(script string) ([]simStep, error) {
	var steps []simStep
	for _, part := range strings.Split(script, ";") {
		f := strings.Fields(part)
		if len(f) == 0 {
			continue
		}
		st := simStep{op: f[0], args: f[1:]}
		if n := len(st.args); n > 0 && strings.HasPrefix(st.args[n-1], "=") {
			st.want, st.args = st.args[n-1][1:], st.args[:n-1]
		}
		arity := map[string]int{"ask": 2, "twin": 2, "again": 2, "memo": 1, "hang": 0, "unhang": 0, "tick": 0, "crash": 2, "compact": 4, "restart": 1, "prefer": 0, "solves": 1, "verdicts": 2}
		n, ok := arity[st.op]
		if !ok || n != len(st.args) {
			return nil, fmt.Errorf("step %q: unknown op or wrong arity", part)
		}
		if q := st.query(); q != "" && simQueries[q] == "" {
			return nil, fmt.Errorf("step %q: unknown query kind %q", part, q)
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// query is the step's query kind, "" for a step that asks nothing.
func (s simStep) query() string {
	switch s.op {
	case "ask", "twin", "again":
		return s.args[1]
	case "compact":
		return s.args[3]
	}
	return ""
}

func formatSchedule(steps []simStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// simOpts shapes the world a schedule runs in.
type simOpts struct {
	shards    int     // 1..3 (default 3)
	threshold float64 // MaxDisclosure (default 0.9)
}

// simTechnique is the tag on every answer of the harness's source: its
// preservation registry is empty, so it publishes unrounded values.
var simTechnique = preserve.NewRegistry().For(preserve.BreachAggregateInference).Name()

type simGiven struct {
	kind string
	res  *piql.Result
}

type simWorld struct {
	t         testing.TB
	threshold float64
	base      string
	src       *source.Source
	gate      *simGate
	chaos     *resilience.Chaos
	ring      *shard.Ring
	ids       []string
	slots     map[string]*simSlot

	clockMu sync.Mutex
	clock   time.Time

	hanging  bool // the source answers nothing
	fresh    int  // requesters again has made up
	given    map[string][]simGiven
	refused  map[string]string  // requester + "\x00" + canonical query -> verdict
	combined map[string]float64 // requester -> Disclosure of their last ledger-combination refusal
	problems []string
	halted   bool // a node would not open: the schedule stops there
}

// simSlot is one shard: the node answering for it, swapped by restart.
type simSlot struct {
	id    string
	dir   string
	acked int // history entries recorded while the log lived

	mu   sync.RWMutex
	node *simNode
}

// simNode is one mediator process.
type simNode struct {
	m   *Mediator
	fp  *durable.Failpoints
	reg *obs.Registry
	dir string
}

func (sl *simSlot) current() *simNode {
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	return sl.node
}

func (sl *simSlot) swap(n *simNode) {
	sl.mu.Lock()
	sl.node = n
	sl.mu.Unlock()
}

// simGate parks one Query at a time so a twin's follower can join the
// leader's flight before the leader's fan-out returns.
type simGate struct {
	source.Endpoint
	mu      sync.Mutex
	hold    chan struct{}
	arrived chan struct{}
}

func (g *simGate) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	g.mu.Lock()
	hold, arrived := g.hold, g.arrived
	g.hold, g.arrived = nil, nil
	g.mu.Unlock()
	if hold != nil {
		close(arrived)
		<-hold
	}
	return g.Endpoint.Query(ctx, text, requester)
}

func newSimWorld(t testing.TB, opts simOpts) *simWorld {
	if opts.shards == 0 {
		opts.shards = 3
	}
	if opts.threshold == 0 {
		opts.threshold = 0.9
	}
	base, err := os.MkdirTemp("", "piye-sim-")
	if err != nil {
		t.Fatal(err)
	}
	w := &simWorld{
		t: t, threshold: opts.threshold, base: base, clock: time.Unix(1e9, 0),
		ring:  shard.New(shard.DefaultSeed, shard.DefaultVnodes),
		slots: map[string]*simSlot{}, given: map[string][]simGiven{}, refused: map[string]string{},
		combined: map[string]float64{},
	}
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	must(t, err)
	cat := relational.NewCatalog()
	must(t, cat.Add(tab))
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//compliance/row/hmo", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//compliance/row/test", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.9},
	)
	must(t, err)
	aud, err := audit.NewLog(audit.Config{Population: len(tab.Rows()), MinSetSize: 2, MaxOverlap: -1})
	must(t, err)
	w.src, err = source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry(), Audit: aud, PlanCache: 256})
	must(t, err)
	ep, err := source.NewLocal(w.src, salt, nil)
	must(t, err)
	w.chaos = resilience.NewChaos(ep, resilience.ChaosConfig{})
	w.gate = &simGate{Endpoint: w.chaos}

	for i := 0; i < opts.shards; i++ {
		sl := &simSlot{id: "shard-" + string(rune('a'+i)), dir: filepath.Join(base, fmt.Sprint(i))}
		must(t, w.ring.Add(sl.id))
		w.ids = append(w.ids, sl.id)
		w.slots[sl.id] = sl
	}
	for _, id := range w.ids {
		sl := w.slots[id]
		sl.swap(w.open(sl, sl.dir))
	}
	return w
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func (w *simWorld) now() time.Time {
	w.clockMu.Lock()
	defer w.clockMu.Unlock()
	return w.clock
}

// open starts one node of sl over dir.
func (w *simWorld) open(sl *simSlot, dir string) *simNode {
	n := &simNode{fp: durable.NewFailpoints(), reg: obs.NewRegistry(), dir: dir}
	cfg := Config{
		Endpoints: []source.Endpoint{w.gate}, MaxDisclosure: w.threshold,
		SourceTimeout: 100 * time.Millisecond, PlanCache: 64, Coalesce: true,
		WarehouseCapacity: 64, WarehouseTTL: 8, Obs: n.reg,
		Resilience: &resilience.EndpointConfig{
			Policy:  resilience.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 3, OpenFor: 4 * time.Second, Clock: w.now},
		},
		Durability: &DurabilityConfig{Dir: dir, Failpoints: n.fp},
		Shard:      &ShardConfig{ID: sl.id, Peers: w.ids, Seed: shard.DefaultSeed},
	}
	// A mediator bootstraps its schema from a live source, so an operator
	// restarts one while the source answers.
	w.chaos.SetHang(false)
	m, err := New(cfg)
	w.chaos.SetHang(w.hanging)
	if err != nil {
		w.fail("(iii) %s does not reopen over its state dir: %v", sl.id, err)
		w.halted = true
		return nil
	}
	n.m = m
	return n
}

func (w *simWorld) close() {
	for _, sl := range w.slots {
		if n := sl.current(); n != nil {
			n.m.Close()
		}
	}
	os.RemoveAll(w.base)
}

func (w *simWorld) fail(format string, args ...any) {
	w.problems = append(w.problems, fmt.Sprintf(format, args...))
}

// slot resolves a step's shard argument.
func (w *simWorld) slot(arg string) *simSlot {
	if r, ok := strings.CutPrefix(arg, "@"); ok {
		arg, _ = w.ring.Lookup(r)
	}
	if sl := w.slots[arg]; sl != nil {
		return sl
	}
	return w.slots[w.ids[0]]
}

// route sends a query the way piye-router does: to the requester's
// ring owner.
func (w *simWorld) route(req, text string) (*Integrated, error) {
	owner, err := w.ring.Lookup(req)
	if err != nil {
		return nil, err
	}
	return w.slots[owner].current().m.Query(text, req)
}

// answered records what a query gave its requester and returns the
// step's outcome.
func (w *simWorld) answered(req, kind string, out *Integrated, err error) string {
	q := piql.MustParse(strings.TrimSpace(simQueries[kind]))
	key := req + "\x00" + q.String()
	if err != nil {
		if r := (*CombinationRefusal)(nil); errors.As(err, &r) {
			w.combined[req] = r.Disclosure
		}
		label := string(refusal.Classify(err))
		if _, seen := w.refused[key]; !seen && simVerdicts[label] {
			w.refused[key] = label
		}
		return label
	}
	// A policy change may strip items from a query that was refused; the
	// stripped answer is a different, weaker release.
	whole := true
	for _, ri := range q.Return {
		whole = whole && slices.Contains(out.Result.Columns, ri.Name())
	}
	if prior, ok := w.refused[key]; ok && whole {
		w.fail("(ii) %s was refused %s %s and later answered", req, kind, prior)
	}
	w.given[req] = append(w.given[req], simGiven{kind, out.Result})
	return "ok"
}

func (w *simWorld) ask(req, kind string) string {
	out, err := w.route(req, simQueries[kind])
	return w.answered(req, kind, out, err)
}

func (w *simWorld) step(st simStep) string {
	a := st.args
	switch st.op {
	case "ask":
		return w.ask(a[0], a[1])
	case "twin":
		return w.twin(a[0], a[1])
	case "again":
		return w.again(a[0], a[1])
	case "memo":
		return fmt.Sprint(w.slot(a[0]).current().reg.Counter("piye_mediator_queries_total", "outcome", outcomeMemo).Value())
	case "hang", "unhang":
		w.hanging = st.op == "hang"
		w.chaos.SetHang(w.hanging)
		return "ok"
	case "tick":
		w.clockMu.Lock()
		w.clock = w.clock.Add(5 * time.Second)
		w.clockMu.Unlock()
		return "ok"
	case "crash":
		if !slices.Contains(durable.Points()[:3], a[1]) {
			return "-"
		}
		w.slot(a[0]).current().fp.Arm(a[1])
		return "ok"
	case "compact":
		return w.compact(w.slot(a[0]), a[1], a[2], a[3])
	case "restart":
		return w.restart(w.slot(a[0]))
	case "prefer":
		p, err := policy.NewPolicy("subject-HMO1", policy.Allow,
			policy.Rule{Item: "//compliance//rate", Purpose: "research", Effect: policy.Deny})
		must(w.t, err)
		must(w.t, w.src.AddPreference(p))
		return "ok"
	case "solves":
		miss, hit := solves(w.slot(a[0]).current().m)
		return fmt.Sprintf("%d/%d", miss, hit)
	case "verdicts":
		d0, ok0 := w.combined[a[0]]
		d1, ok1 := w.combined[a[1]]
		switch {
		case !ok0 || !ok1:
			return "-"
		case math.Float64bits(d0) != math.Float64bits(d1):
			return "differ"
		}
		return "ok"
	}
	panic("unknown op " + st.op)
}

// again runs R's ask of kind and then the same ask by a requester no
// step has named, owned by R's ring owner: the second is answered from
// that node's kept integration whenever the source's answer is unchanged.
func (w *simWorld) again(req, kind string) string {
	first := w.ask(req, kind)
	owner, err := w.ring.Lookup(req)
	must(w.t, err)
	var fresh string
	for {
		w.fresh++
		fresh = fmt.Sprintf("fresh%d", w.fresh)
		if o, err := w.ring.Lookup(fresh); err == nil && o == owner {
			break
		}
	}
	if second := w.ask(fresh, kind); second != first {
		return first + "|" + second
	}
	return first
}

// twin runs two identical asks with the leader parked in the source until
// the follower has joined its flight; a query refused before the fan-out
// never parks, and the follower then runs on its own.
func (w *simWorld) twin(req, kind string) string {
	hold, arrived := make(chan struct{}), make(chan struct{})
	w.gate.mu.Lock()
	w.gate.hold, w.gate.arrived = hold, arrived
	w.gate.mu.Unlock()
	type reply struct {
		out *Integrated
		err error
	}
	ask := func(c chan<- reply) {
		out, err := w.route(req, simQueries[kind])
		c <- reply{out, err}
	}
	leader, follower := make(chan reply, 1), make(chan reply, 1)
	go ask(leader)
	var first, second reply
	select {
	case <-arrived:
		joined := w.followers() + 1
		go ask(follower)
		for deadline := time.Now().Add(10 * time.Second); w.followers() < joined; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				w.fail("a twin of %s %s never joined its leader's flight", req, kind)
				break
			}
		}
		close(hold)
		first, second = <-leader, <-follower
	case first = <-leader:
		w.gate.mu.Lock()
		w.gate.hold, w.gate.arrived = nil, nil
		w.gate.mu.Unlock()
		go ask(follower)
		second = <-follower
	}
	a, b := w.answered(req, kind, first.out, first.err), w.answered(req, kind, second.out, second.err)
	if a != b {
		return a + "|" + b
	}
	return a
}

// followers counts coalesced followers across the serving nodes.
func (w *simWorld) followers() (n uint64) {
	for _, sl := range w.slots {
		n += sl.current().reg.Counter("piye_mediator_coalesce_total", "role", "follower").Value()
	}
	return n
}

func (w *simWorld) restart(sl *simSlot) string {
	old := sl.current()
	pre := captureSim(old.m)
	old.m.Close()
	must(w.t, old.fp.LoseUnsynced(old.dir))
	n := w.open(sl, old.dir)
	sl.swap(n)
	if n == nil {
		return "-"
	}
	w.checkRecovered(sl.id+" restart", pre, sl.acked, n.m)
	return "ok"
}

// compact snapshots sl's log with its file write parked after the
// capture, lets req's query land in between, and then crashes the
// install at point (none for "-").
func (w *simWorld) compact(sl *simSlot, point, req, kind string) string {
	n := sl.current()
	reached, release := n.fp.Park(durable.FPSnapWrite)
	done := make(chan error, 1)
	go func() { done <- n.m.snapshot() }()
	select {
	case <-reached:
	case err := <-done: // a dead log never gets as far as the write
		release()
		w.ask(req, kind)
		if err == nil {
			return "ok"
		}
		return "-"
	case <-time.After(10 * time.Second):
		w.fail("a snapshot on %s never reached its file write", sl.id)
		release()
		return "-"
	}
	w.ask(req, kind)
	if point != "-" {
		n.fp.Arm(point)
	}
	release()
	if err := <-done; err != nil {
		return "crashed"
	}
	return "ok"
}

// simState is what a node held when it was closed, and the
// last sequence number its log reported durable.
type simState struct {
	ledger  map[string][]ledgerRelease
	history []HistoryEntry
	seq     uint64
}

func captureSim(m *Mediator) simState {
	s := simState{ledger: map[string][]ledgerRelease{}, history: m.History(), seq: m.dlog.LastSeq()}
	for r := range ledgerRequesters(m) {
		s.ledger[r] = m.ledger.releasesOf(r)
	}
	return s
}

func ledgerRequesters(m *Mediator) map[string]bool {
	set := map[string]bool{}
	m.ledger.read(func(l *releaseLedger) {
		for r := range l.byRequester {
			set[r] = true
		}
	})
	return set
}

// checkRecovered is invariant (iii): every release the old node
// acknowledged is in the new node's ledger, in order (a release written
// but never acknowledged may be there too), and the new history is the
// old one's prefix, at least acked entries long, and the new log reaches
// the sequence number the old one reported.
func (w *simWorld) checkRecovered(what string, pre simState, acked int, m *Mediator) {
	post := captureSim(m)
	if post.seq < pre.seq {
		w.fail("(iii) %s: the log reported seq %d durable and recovered through %d", what, pre.seq, post.seq)
	}
	for r, rels := range pre.ledger {
		got := post.ledger[r]
		if len(got) < len(rels) || fmt.Sprint(got[:len(rels)]) != fmt.Sprint(rels) {
			w.fail("(iii) %s: %s's releases %v recovered as %v", what, r, rels, got)
		}
	}
	h := post.history
	if len(h) < acked || len(h) > len(pre.history) || fmt.Sprint(h) != fmt.Sprint(pre.history[:len(h)]) {
		w.fail("(iii) %s: %d acknowledged of %d history entries recovered as %d", what, acked, len(pre.history), len(h))
	}
}

// afterStep keeps the acknowledged-history marks.
func (w *simWorld) afterStep() {
	for _, sl := range w.slots {
		if n := sl.current(); len(n.fp.Tripped()) == 0 {
			n.m.readHistory(func(h *history) { sl.acked = len(h.recs) })
		}
	}
}

// simInfer memoizes the attacker's verdict per knowledge set: the ground
// truth is fixed, so a few distinct sets recur across every schedule.
var simInfer sync.Map

// simPopulations memoizes each query kind's population: the hidden cells
// (index h*len(clinical.Tests)+t) its FOR and WHERE admit, found by
// running the query over each ground-truth cell on its own.
var simPopulations sync.Map

func simPopulation(kind string) map[int]bool {
	if pop, ok := simPopulations.Load(kind); ok {
		return pop.(map[int]bool)
	}
	q := piql.MustParse(strings.TrimSpace(simQueries[kind]))
	truth := clinical.Figure1GroundTruth()
	pop := map[int]bool{}
	for h, hmo := range clinical.HMOs {
		for t, test := range clinical.Tests {
			tab, err := clinical.ComplianceTable("compliance", []string{hmo}, []string{test}, [][]float64{{truth[h][t]}})
			if err != nil {
				panic(err)
			}
			if res, err := q.Evaluate(relational.TableToXML(tab), piql.EvalOptions{}); err == nil && len(res.Rows) > 0 {
				pop[h*len(clinical.Tests)+t] = true
			}
		}
	}
	simPopulations.Store(kind, pop)
	return pop
}

// simPins reports whether the released means, each a row of the cells it
// averages, determine some hidden cell outright: whether a unit vector
// lies in their span (rounding aside, the cell is then pinned).
func simPins(means [][]float64) bool {
	rank := func(rows [][]float64) int {
		m := make([][]float64, len(rows))
		for i := range rows {
			m[i] = slices.Clone(rows[i])
		}
		r := 0
		for c := 0; c < len(clinical.HMOs)*len(clinical.Tests) && r < len(m); c++ {
			p := r
			for i := r; i < len(m); i++ {
				if math.Abs(m[i][c]) > math.Abs(m[p][c]) {
					p = i
				}
			}
			if math.Abs(m[p][c]) < 1e-9 {
				continue
			}
			m[r], m[p] = m[p], m[r]
			for i := range m {
				if i != r {
					f := m[i][c] / m[r][c]
					for j := range m[i] {
						m[i][j] -= f * m[r][j]
					}
				}
			}
			r++
		}
		return r
	}
	base := rank(means)
	for c := 0; c < len(clinical.HMOs)*len(clinical.Tests); c++ {
		unit := make([]float64, len(clinical.HMOs)*len(clinical.Tests))
		unit[c] = 1
		if rank(append(slices.Clone(means), unit)) == base {
			return true
		}
	}
	return false
}

// disclosure is the oracle: the tightest the Figure 1 attacker can pin
// any hidden cell, as a fraction of its prior range, from everything req
// was given. The attacker needs every test's mean and sigma and all HMO
// means but one (the test means fix the total, which implies the last),
// each over its full population. A mean over part of it (a WHERE that
// drops cells of its group) enters two checks instead: means whose
// differences isolate a cell pin it, and a partial mean held beside the
// test sigmas is a system the attacker does not model, which the ledger
// must have refused as unverifiable, so the oracle reads it as pinned.
// The attacker reads each value to the finest accuracy the releases it
// holds were published at, as the ledger does (publishedTolerance).
func (w *simWorld) disclosure(req string) float64 {
	testMean, testSD, hmoMean := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var means [][]float64
	partial := false
	tol := math.Inf(1)
	for _, g := range w.given[req] {
		if simCellKinds[g.kind] && len(g.res.Rows) > 0 {
			return 1
		}
		col := func(name string) int { return slices.Index(g.res.Columns, name) }
		t, h, a, s := col("test"), col("hmo"), col("avg_rate"), col("sd_rate")
		if a < 0 {
			continue
		}
		tol = min(tol, publishedTolerance(&answer{technique: simTechnique, result: g.res}, "avg_rate"))
		if s >= 0 {
			tol = min(tol, publishedTolerance(&answer{technique: simTechnique, result: g.res}, "sd_rate"))
		}
		pop := simPopulation(g.kind)
		for _, row := range g.res.Rows {
			mean, err := strconv.ParseFloat(strings.TrimSpace(row[a]), 64)
			if err != nil {
				continue
			}
			cells, n := make([]float64, len(clinical.HMOs)*len(clinical.Tests)), 0
			for c := range cells {
				if pop[c] && (t >= 0 && clinical.Tests[c%len(clinical.Tests)] == row[t] ||
					t < 0 && h >= 0 && clinical.HMOs[c/len(clinical.Tests)] == row[h]) {
					cells[c], n = 1, n+1
				}
			}
			means = append(means, cells)
			switch {
			case t >= 0 && n < len(clinical.HMOs), t < 0 && h >= 0 && n < len(clinical.Tests):
				partial = true
			case t >= 0 && s >= 0:
				if sd, err := strconv.ParseFloat(strings.TrimSpace(row[s]), 64); err == nil {
					testMean[row[t]], testSD[row[t]] = mean, sd
				}
			case h >= 0:
				hmoMean[row[h]] = mean
			}
		}
	}
	if simPins(means) || partial && len(testSD) == len(clinical.Tests) {
		return 1
	}
	if len(testSD) < len(clinical.Tests) || len(hmoMean) < len(clinical.HMOs)-1 {
		return 0
	}
	k := &attack.Knowledge{OwnIndex: -1, Tolerance: tol, SampleSigma: true, Lo: 0, Hi: 100}
	total, known, missing := 0.0, 0.0, ""
	for _, test := range clinical.Tests {
		k.AttrMean, k.AttrSigma = append(k.AttrMean, testMean[test]), append(k.AttrSigma, testSD[test])
		total += testMean[test] * float64(len(clinical.HMOs))
	}
	for _, h := range clinical.HMOs {
		if v, ok := hmoMean[h]; ok {
			known += v * float64(len(clinical.Tests))
		} else {
			missing = h
		}
	}
	if missing != "" {
		hmoMean[missing] = (total - known) / float64(len(clinical.Tests))
	}
	for _, h := range clinical.HMOs {
		k.PartyMean = append(k.PartyMean, hmoMean[h])
	}
	// The paper's snooper is an insider (Figure 1(c)): the worst of the
	// outsider and each HMO holding its own ground-truth row.
	worst := simAttack(k)
	for h, row := range clinical.Figure1GroundTruth() {
		insider := *k
		insider.OwnIndex, insider.OwnRow = h, row
		worst = max(worst, simAttack(&insider))
	}
	return worst
}

// simAttack is the attacker's disclosure from one knowledge set, 0 when
// the solver finds no matrix that fits it.
func simAttack(k *attack.Knowledge) float64 {
	key := fmt.Sprint(k.OwnIndex, k.AttrMean, k.AttrSigma, k.PartyMean, k.Tolerance)
	if d, ok := simInfer.Load(key); ok {
		return d.(float64)
	}
	d := 0.0
	if inf, err := k.Infer(attack.DefaultOptions()); err == nil {
		d = inf.MaxDisclosure()
	}
	simInfer.Store(key, d)
	return d
}

// simOutcomes counts each step's op and outcome across a sweep, so a
// sweep shows which paths its schedules reached.
var simOutcomes sync.Map

// runSchedule runs steps in a fresh world and returns every broken
// invariant and unmet expectation, nil when the contract held.
func runSchedule(t testing.TB, opts simOpts, steps []simStep) []string {
	w := newSimWorld(t, opts)
	defer w.close()
	for i, st := range steps {
		got := w.step(st)
		n, _ := simOutcomes.LoadOrStore(st.op+" "+got, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		if st.want != "" && got != st.want {
			w.fail("step %d (%s) gave %s", i+1, st, got)
		}
		if w.halted {
			return w.problems
		}
		w.afterStep()
	}
	for req := range w.given {
		if d := w.disclosure(req); d >= w.threshold {
			w.fail("(i) %s can pin a hidden cell to %.0f%% of its range (threshold %.0f%%)", req, 100*d, 100*w.threshold)
		}
	}
	return w.problems
}

// simGenerate is the seeded generator: per-requester query sequences
// interleaved with a schedule of features and faults.
func simGenerate(seed uint64, n int) []simStep {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	pick := func(xs ...string) string { return xs[rng.IntN(len(xs))] }
	reqs := []string{"r0", "r1", "r2", "r3"}
	kinds := []string{"1a", "1a", "1a+", "1b", "1b", "1bx", "n", "sel", "cell", "rowcell", "ws"}
	shardArg := func() string { return pick("shard-a", "shard-b", "shard-c", "@"+pick(reqs...)) }
	steps := make([]simStep, 0, n)
	for len(steps) < n {
		var st simStep
		switch r := rng.IntN(30); {
		case r < 14:
			st = simStep{op: "ask", args: []string{pick(reqs...), pick(kinds...)}}
		case r < 16:
			st = simStep{op: "again", args: []string{pick(reqs...), pick(kinds...)}}
		case r < 19:
			st = simStep{op: "twin", args: []string{pick(reqs...), pick(kinds...)}}
		case r < 20:
			st = simStep{op: pick("hang", "unhang", "unhang")}
		case r < 21:
			st = simStep{op: "tick"}
		case r < 24:
			st = simStep{op: "crash", args: []string{shardArg(), pick(durable.Points()[:3]...)}}
		case r < 25:
			req := pick(reqs...)
			st = simStep{op: "compact", args: []string{"@" + req, pick(append([]string{"-"}, durable.Points()[3:]...)...), req, pick(kinds...)}}
		case r < 29 || rng.IntN(3) > 0: // a preference denies rate for good: keep it rare
			st = simStep{op: "restart", args: []string{shardArg()}}
		default:
			st = simStep{op: "prefer"}
		}
		steps = append(steps, st)
	}
	return steps
}

// shrink drops steps, last first, while the schedule still breaks the
// contract; what is left is the corpus entry.
func shrink(t testing.TB, steps []simStep) []simStep {
	for changed := true; changed; {
		changed = false
		for i := len(steps) - 1; i >= 0; i-- {
			cand := append(slices.Clone(steps[:i]), steps[i+1:]...)
			if len(runSchedule(t, simOpts{}, cand)) > 0 {
				steps, changed = cand, true
			}
		}
	}
	return steps
}

// TestContract is the scenario table. Each row is a schedule with
// expected outcomes; covers names the example tests it replaced.
func TestContract(t *testing.T) {
	solo := simOpts{shards: 1}
	type row struct {
		name, script, covers string
		opts                 simOpts
	}
	rows := []row{
		{"figure1 pair refused in both orders and per requester",
			"ask a 1a =ok; ask a 1b =ledger-combination; ask b 1b =ok; ask b 1a =ledger-combination",
			"", solo},
		{"a threshold of 1 lets the pair through", "ask a 1a =ok; ask a 1b =ok",
			"", simOpts{shards: 1, threshold: 1}},
		{"a pair the check cannot evaluate is refused in both orders",
			"ask a 1a =ok; ask a 1bx =ledger-unverifiable; ask b 1bx =ok; ask b 1a =ledger-unverifiable", "", solo},
		{"means over two populations of one axis are refused in both orders (3·1b − 2·1bx is the Eye Exam column)",
			"ask a 1bx =ok; ask a 1b =ledger-unverifiable; ask b 1b =ok; ask b 1bx =ledger-unverifiable", "", solo},
		{"unrelated releases pass", "ask a 1a =ok; ask a 1a+ =ok; ask a n =ok; ask a sel =ok; ask a ws =ok",
			"", solo},
		{"plan-cache hit still ledgered",
			"ask a 1b =ok; ask b 1a =ok; ask b 1b =ledger-combination; ask a 1a+ =ledger-combination",
			"TestPlanCacheHitStillRefusedByLedger", solo},
		{"coalesced twin still ledgered", "ask a 1a =ok; twin a 1b =ledger-combination; twin b 1a =ok",
			"TestCoalescedQueryStillRefusedByLedger", solo},
		{"an answer from the kept integration is still ledgered",
			"ask a 1a =ok; ask b 1a =ok; memo shard-a =1; ask b 1b =ledger-combination; again c 1a =ok; memo shard-a =2; twin d 1a =ok; ask d 1b =ledger-combination",
			"", solo},
		{"audit refuses one-cell and unauditable aggregates",
			"ask a cell =audit-set-size; ask a rowcell =audit-set-size; ask a rowcell =audit-set-size",
			"source.TestAuditRefusesUnauditableAggregates", solo},
		{"restart amnesia defeated", "ask a 1a =ok; restart shard-a =ok; ask a 1b =ledger-combination; ask b 1b =ok",
			"", solo},
		{"queries land during snapshots",
			"ask a 1a =ok; compact shard-a - b 1a =ok; ask c 1a =ok; compact shard-a - c 1b =ok; restart shard-a =ok; ask a 1b =ledger-combination; ask b 1b =ledger-combination",
			"", solo},
		{"twins and a ledgered ask race a compaction",
			"compact shard-a - a 1a =ok; twin a 1a+ =ok; twin b 1b =ok; restart shard-a =ok; twin a 1b =ledger-combination; twin b 1a =ledger-combination",
			"", solo},
		{"append crash fails closed under twins",
			"ask a 1a =ok; crash shard-a append.buffer =ok; twin d 1a =unrecordable; ask e 1a =unrecordable; restart shard-a =ok; ask a 1b =ledger-combination; ask d 1b =ok",
			"", solo},
		{"hang then retry then open circuit then recover",
			"hang; ask a n =timeout; ask a n =timeout; ask a n =timeout; ask a n =breaker-open; unhang; ask a n =breaker-open; tick; ask a n =ok", "", solo},
		{"crash and restart keeps refusals",
			"ask a 1a =ok; ask b 1b =ok; crash @a append.write =ok; ask a n =ok; restart @a =ok; ask a 1b =ledger-combination; ask b 1a =ledger-combination; ask c 1b =ok", "", simOpts{}},
		{"preference added mid-flight", "ask a 1a =ok; prefer; ask a 1b =policy-denied; ask b 1a =ok", "", simOpts{}},
		{"a pair another requester was refused on is refused alike, from the verdict memo",
			"ask a 1a =ok; ask a 1b =ledger-combination; ask b 1a =ok; ask b 1b =ledger-combination; verdicts a b =ok; solves shard-a =1/1",
			"", solo},
	}
	for i, p := range durable.Points() {
		r := row{"crash at " + p,
			"ask a 1a =ok; crash shard-a " + p + "; ask b 1a =unrecordable; ask c n =ok; restart shard-a =ok; ask a 1b =ledger-combination; ask c 1a =ok",
			"", solo}
		if i >= 3 {
			r.script = "ask a 1a =ok; compact shard-a " + p + " b 1a =crashed; restart shard-a =ok; ask a 1b =ledger-combination; ask b 1b =ledger-combination"
		}
		rows = append(rows, r)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			steps, err := parseSchedule(r.script)
			must(t, err)
			for _, p := range runSchedule(t, r.opts, steps) {
				t.Error(p)
			}
		})
	}
}

// A pair the combination check cannot evaluate (Figure 1(a), then HMO
// means over two of its three tests, which no matrix fits) is refused as
// a privacy refusal: 403 on the wire, with a message that classifies
// back to ledger-unverifiable past the hop.
func TestUnverifiablePairRefused403(t *testing.T) {
	w := newSimWorld(t, simOpts{shards: 1})
	defer w.close()
	h := NewHandler(w.slots["shard-a"].current().m)
	post := func(q string) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q))
		req.Header.Set("X-Requester", "snooper")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := post(perTestQuery); code != http.StatusOK {
		t.Fatalf("Figure 1(a): %d %s", code, body)
	}
	code, body := post(simQueries["1bx"])
	if code != http.StatusForbidden || refusal.ClassifyString(body) != refusal.LedgerUnverifiable {
		t.Fatalf("HMO means over another population: %d %s, want 403 ledger-unverifiable", code, body)
	}
}

// TestContractKnownOpen keeps the paths the invariant does not hold on
// in view, each asserting exactly one (i) violation:
//   - the party axis asked one group at a time is never combined by the
//     ledger, which drops a release with fewer than two groups. When the
//     ledger learns to combine them, this row fails and the h kinds join
//     the generator;
//   - at a threshold of 0.97 the ledger, which attacks as an outsider,
//     grants the Figure 1 pair (0.965 at the releases' floor), but the
//     oracle's insider HMO pins a cell past it (0.998). When the ledger
//     models insiders (ROADMAP J (3)), this row fails.
func TestContractKnownOpen(t *testing.T) {
	for _, c := range []struct {
		script string
		opts   simOpts
	}{
		{"ask a 1a =ok; ask a h1 =ok; ask a h2 =ok; ask a h3 =ok", simOpts{shards: 1}},
		{"ask a 1a =ok; ask a 1b =ok", simOpts{shards: 1, threshold: 0.97}},
	} {
		steps, err := parseSchedule(c.script)
		must(t, err)
		got := runSchedule(t, c.opts, steps)
		if len(got) != 1 || !strings.HasPrefix(got[0], "(i)") {
			t.Errorf("%s at threshold %v: %q, want exactly one (i) violation", c.script, c.opts.threshold, got)
		}
	}
}

// TestContractCorpus replays every committed schedule that once broke
// the contract (each caught a seeded mutation; see EXPERIMENTS.md E42).
func TestContractCorpus(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sim_corpus.txt"))
	must(t, err)
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n++
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			steps, err := parseSchedule(line)
			must(t, err)
			for _, p := range runSchedule(t, simOpts{}, steps) {
				t.Error(p)
			}
		})
	}
}

// TestContractSweep runs generated schedules, -sim.schedules of them
// from seed -sim.seed on, and shrinks the first that breaks the
// contract into a corpus line.
func TestContractSweep(t *testing.T) {
	const steps = 16
	seeds := make(chan uint64)
	var mu sync.Mutex
	var failed []simStep
	var failedSeed uint64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				sched := simGenerate(seed, steps)
				if p := runSchedule(t, simOpts{}, sched); len(p) > 0 {
					t.Logf("seed %d: %q", seed, p)
					mu.Lock()
					if failed == nil {
						failed, failedSeed = sched, seed
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < *simSchedules; i++ {
		mu.Lock()
		stop := failed != nil
		mu.Unlock()
		if stop {
			break
		}
		seeds <- *simSeed + uint64(i)
	}
	close(seeds)
	wg.Wait()
	var counts []string
	simOutcomes.Range(func(k, v any) bool {
		counts = append(counts, fmt.Sprintf("%s: %d", k, v.(*atomic.Int64).Load()))
		return true
	})
	slices.Sort(counts)
	t.Logf("step outcomes:\n%s", strings.Join(counts, "\n"))
	if failed != nil {
		small := shrink(t, failed)
		t.Fatalf("seed %d breaks the contract: %q\nshrunk to: %s", failedSeed,
			runSchedule(t, simOpts{}, small), formatSchedule(small))
	}
}
