package mediator

// The compact form of the inference-control state (history.go, and the
// release table and groupValues in ledger.go): what it holds per entry,
// that it keeps none of its callers' slices, and that it writes the bytes
// the map- and struct-shaped state it replaced wrote.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"privateiye/internal/piql"
)

const sexQuery = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"

func TestHistoryRecordIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(histRecord{}); n != 24 {
		t.Fatalf("histRecord is %d bytes, want 24", n)
	}
}

// The history keeps what was answered, not the caller's slice: an
// answer's Answered belongs to its caller and to every coalesced
// follower, while the WAL and a restarted node keep what was recorded.
// Nor may a caller of History() reach the lists its entries share.
func TestHistoryDoesNotAliasTheAnswer(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t), WarehouseCapacity: 8, WarehouseTTL: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i, via := range []string{"fan-out", "warehouse"} {
		in, err := m.Query(sexQuery, "r")
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(in.Answered)
		for j := range in.Answered {
			in.Answered[j] = "forged"
		}
		if got := m.History()[i].Sources; !slices.Equal(got, want) {
			t.Errorf("%s: the caller rewrote the history's sources to %v, want %v", via, got, want)
		}
		m.History()[i].Sources[0] = "forged"
		if got := m.History()[i].Sources; !slices.Equal(got, want) {
			t.Errorf("%s: a History() caller rewrote the history's sources to %v, want %v", via, got, want)
		}
	}
}

// A warehouse-served answer by a requester already in the history adds
// its 24-byte record and nothing else: not the requester header's
// string, not a source list.
func TestWarehouseServedEntryRetainsAtMost40Bytes(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t), WarehouseCapacity: 64, WarehouseTTL: 1 << 30, PlanCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	const requesters, n = 64, 20000
	for i := 0; i < requesters; i++ {
		if _, err := m.Query(sexQuery, fmt.Sprint("requester-", i)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		// A fresh string per query, as a request header is.
		in, err := m.Query(sexQuery, fmt.Sprint("requester-", i%requesters))
		if err != nil || !in.FromWarehouse {
			t.Fatalf("want a warehouse-served answer, got %+v, %v", in, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := len(m.History()); got != requesters+n {
		t.Fatalf("history holds %d entries, want %d", got, requesters+n)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f bytes retained per warehouse-served entry", per)
	if per > 40 {
		t.Errorf("%.1f bytes retained per warehouse-served entry, want ≤ 40", per)
	}
}

// The WAL writes an entry's nil Denied as null and an empty one as [],
// and the snapshot does the same; every route into the state keeps the
// two apart.
func TestNilAndEmptyDeniedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := stateMediator(t, dir)
	m.record(HistoryEntry{Requester: "a", Query: "q", Sources: []string{"s"}})
	m.record(HistoryEntry{Requester: "b", Query: "q", Sources: []string{"s"}, Denied: []string{}})
	want := encodedState(t, m)
	if !bytes.Contains(want, []byte(`"Denied":null`)) || !bytes.Contains(want, []byte(`"Denied":[]`)) {
		t.Fatalf("the state does not write nil and empty apart: %s", want)
	}
	check := func(route string, m *Mediator) {
		t.Helper()
		h := m.History()
		if len(h) != 2 || h[0].Denied != nil || h[1].Denied == nil || len(h[1].Denied) != 0 {
			t.Errorf("%s: Denied = %#v and %#v, want nil and empty", route, h[0].Denied, h[1].Denied)
		}
		if got := encodedState(t, m); !bytes.Equal(got, want) {
			t.Errorf("%s: state\n got %s\nwant %s", route, got, want)
		}
	}
	check("live", m)
	m.Close()
	m = stateMediator(t, dir)
	check("replayed from the WAL", m)
	if err := m.snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	check("installed from the snapshot", stateMediator(t, dir))
}

// refRelease is ledgerRelease as it was while its values were maps: the
// encoding the WAL and the snapshot keep.
type refRelease struct {
	Target   string             `json:"t"`
	ValueCol string             `json:"v"`
	Axis     string             `json:"a"`
	Means    map[string]float64 `json:"m"`
	Sigmas   map[string]float64 `json:"s,omitempty"`
}

// Over seeded random releases — keys encoding/json escapes, duplicate
// group rows, floats at the edges of its two formats — a release writes
// exactly the bytes the map form wrote, reads back to the same bytes,
// and refuses what the map form refused.
func TestReleaseEncodesAsTheMapDid(t *testing.T) {
	keys := []string{"HbA1c", "Eye Exam", "<b>", "a&b", `say "hi"`, "naïve", "line\u2028sep",
		"tab\there", `back\slash`, "", "\x00", "\xffbad", "z", "日本", "Lipid Profile"}
	edges := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e21, 1e20, 5e-324,
		math.MaxFloat64, -1.5, 82.97500000000001, 1e-9, -1e-10, 123456789, 0.1}
	rng := rand.New(rand.NewSource(27))
	value := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for i := 0; i < 3000; i++ {
		ref := refRelease{Target: "//compliance/row", ValueCol: "rate", Axis: "test", Means: map[string]float64{}}
		rel := ledgerRelease{Target: ref.Target, ValueCol: ref.ValueCol, Axis: ref.Axis, Means: groupValues{}}
		if rng.Intn(2) == 0 {
			ref.Sigmas, rel.Sigmas = map[string]float64{}, groupValues{}
		}
		for j := rng.Intn(7); j > 0; j-- {
			k, v := keys[rng.Intn(len(keys))], value()
			ref.Means[k] = v
			rel.Means = append(rel.Means, groupValue{k, v})
			if ref.Sigmas != nil && rng.Intn(4) > 0 {
				s := value()
				ref.Sigmas[k] = s
				rel.Sigmas = append(rel.Sigmas, groupValue{k, s})
			}
		}
		rel.Means, rel.Sigmas = rel.Means.settle(), rel.Sigmas.settle()
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rel)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("release %d:\n got %s (%v)\nwant %s", i, got, err, want)
		}
		// Read back, each form writes what it read (a key that is not
		// UTF-8 comes back with U+FFFD in it, in both).
		var back ledgerRelease
		var refBack refRelease
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &refBack); err != nil {
			t.Fatal(err)
		}
		want, _ = json.Marshal(refBack)
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("release %d read back:\n got %s (%v)\nwant %s", i, again, err, want)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rel := ledgerRelease{Means: groupValues{{"a", 1}, {"b", bad}}}
		if _, err := json.Marshal(refRelease{Means: map[string]float64{"a": 1, "b": bad}}); err == nil {
			t.Fatal("the map form accepted a non-finite value")
		}
		if b, err := json.Marshal(rel); err == nil {
			t.Errorf("%v encoded as %s", bad, b)
		}
		m := stateMediator(t, t.TempDir())
		var unrecordable *UnrecordableRefusal
		if err := m.checkAndRecord("r", rel, HistoryEntry{}); !errors.As(err, &unrecordable) {
			t.Errorf("recording a release holding %v: %v, want an UnrecordableRefusal", bad, err)
		}
	}
}

// releaseRecordAllocsAtParent is what classifying a Figure 1(a) release
// and logging it allocated while the release's values were two maps.
const releaseRecordAllocsAtParent = 22

// Slices in place of the two maps must not make the release record path
// (classify, then log) allocate more than it did.
func TestReleaseRecordPathAllocations(t *testing.T) {
	m := stateMediator(t, t.TempDir())
	in, err := m.Query(perTestQuery, "snooper")
	if err != nil {
		t.Fatal(err)
	}
	q := piql.MustParse(perTestQuery)
	allocs := testing.AllocsPerRun(50, func() {
		rel, ok := classifyRelease(q, in.Result, nil)
		if !ok {
			t.Fatal("Figure 1(a) did not classify")
		}
		if err := m.logRecord(walRecord{Kind: kindRelease, Requester: "snooper", Release: &rel}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("classify + log: %v allocs", allocs)
	if allocs > releaseRecordAllocsAtParent {
		t.Errorf("classify + log: %v allocs, %d at the parent", allocs, releaseRecordAllocsAtParent)
	}
}

// releasesOf is how tests read the ledger: the requester's releases, by
// value and in record order, whatever layout holds them.
func (l *releaseLedger) releasesOf(requester string) []ledgerRelease {
	var out []ledgerRelease
	l.read(func(l *releaseLedger) {
		for _, id := range l.byRequester[requester] {
			out = append(out, l.rels[id])
		}
	})
	return out
}

// figure1Release is a Figure 1(a)-shaped release with its own slices,
// sized as classifyRelease sizes them, and its own group-key strings, as
// classifyRelease makes one from a fresh answer.
func figure1Release(mean0 float64) ledgerRelease {
	rel := ledgerRelease{Target: "//compliance/row", ValueCol: "rate", Axis: "test",
		Means: make(groupValues, 0, 3), Sigmas: make(groupValues, 0, 3)}
	for i, k := range []string{"Eye Exam", "HbA1c", "Lipid Profile"} {
		k = strings.Clone(k)
		rel.Means = append(rel.Means, groupValue{k, mean0 + float64(i)})
		rel.Sigmas = append(rel.Sigmas, groupValue{k, 9.5 + float64(i)})
	}
	return rel
}

// Requesters given the same release share one table entry; a release that
// differs in one float bit, one group key, its axis, nil against empty
// sigmas, or only its tolerance gets its own. Every requester reads back its releases in record
// order, live and after a snapshot is installed on another node.
func TestLedgerInternsEachDistinctReleaseOnce(t *testing.T) {
	m := stateMediator(t, t.TempDir())
	l := m.ledger
	bit := figure1Release(60)
	bit.Means[1].v = math.Float64frombits(math.Float64bits(bit.Means[1].v) ^ 1)
	key := figure1Release(60)
	key.Sigmas[2].k = "Lipid profile"
	axis := figure1Release(60)
	axis.Axis = "hmo"
	nilSigmas, emptySigmas := figure1Release(60), figure1Release(60)
	nilSigmas.Sigmas, emptySigmas.Sigmas = nil, groupValues{}
	rounded := figure1Release(60)
	rounded.Tol = 0.5
	variants := []ledgerRelease{figure1Release(60), bit, key, axis, nilSigmas, emptySigmas, rounded}
	for i := range variants {
		if i > 0 && variants[i].hash(l.seed) == variants[0].hash(l.seed) {
			t.Errorf("variant %d hashes as the release it differs from", i)
		}
	}
	for i := range variants {
		for j := range variants {
			if got := variants[i].same(&variants[j]); got != (i == j) {
				t.Errorf("variants %d and %d: same = %v", i, j, got)
			}
		}
	}
	want := map[string][]ledgerRelease{}
	record := func(req string, rels ...ledgerRelease) {
		l.mu.Lock()
		for _, rel := range rels {
			l.add(req, rel)
		}
		l.mu.Unlock()
		want[req] = append(want[req], rels...)
	}
	const n = 50
	for i := 0; i < n; i++ {
		record(fmt.Sprint("r", i), figure1Release(60))
	}
	if len(l.rels) != 1 {
		t.Fatalf("%d requesters given one release fill %d table entries, want 1", n, len(l.rels))
	}
	record("mixed", bit, figure1Release(60), key, axis, nilSigmas, emptySigmas, rounded, figure1Release(60), emptySigmas, rounded)
	if len(l.rels) != 7 {
		t.Fatalf("six variants of one release fill %d table entries, want 7", len(l.rels))
	}
	// A hash collision appends the release and leaves the index alone.
	collides := figure1Release(70)
	l.mu.Lock()
	l.index[collides.hash(l.seed)] = 0
	l.mu.Unlock()
	record("collided", collides, figure1Release(70))
	if got := l.index[collides.hash(l.seed)]; len(l.rels) != 9 || got != 0 {
		t.Fatalf("after a collision: %d table entries, index names %d; want 9 and 0", len(l.rels), got)
	}
	check := func(route string, m *Mediator) {
		t.Helper()
		for req, rels := range want {
			if got := m.ledger.releasesOf(req); !reflect.DeepEqual(got, rels) {
				t.Errorf("%s: %s holds %v, want %v", route, req, got, rels)
			}
		}
	}
	check("live", m)
	s, err := decodeSnapshot(encodedState(t, m))
	if err != nil {
		t.Fatal(err)
	}
	installed := stateMediator(t, t.TempDir())
	installed.installSnapshot(s)
	// Empty sigmas are written as none (omitempty, as the map's were), so
	// they come back nil: the snapshot's distinct releases are one fewer,
	// and the collided pair meets a fresh index.
	for _, rels := range want {
		for i := range rels {
			if len(rels[i].Sigmas) == 0 {
				rels[i].Sigmas = nil
			}
		}
	}
	check("installed from a snapshot", installed)
	if got := len(installed.ledger.rels); got != 7 {
		t.Errorf("the installed ledger fills %d table entries, want 7 (one per distinct release)", got)
	}
}

// The snapshot is streamed from the tables, and writes exactly what
// json.Marshal wrote for the map of per-requester releases and the
// history's entries:
// shared and distinct releases, nil and empty sigmas, a rounded release
// with its tolerance, requesters that sort and escape, and one holding
// none.
func TestSnapshotReleasesEncodeAsTheMapDid(t *testing.T) {
	m := stateMediator(t, t.TempDir())
	nilSigmas, emptySigmas, rounded := figure1Release(1), figure1Release(1), figure1Release(1)
	nilSigmas.Sigmas, emptySigmas.Sigmas, rounded.Tol = nil, groupValues{}, 0.05
	m.installSnapshot(stateSnapshot{Releases: map[string][]ledgerRelease{"empty": {}}})
	reqs := []string{"zed", "<b>", "r2", "a&b", "\xffbad", "r10", "Zed", "日本", `say "hi"`}
	m.ledger.mu.Lock()
	for i, req := range reqs {
		m.ledger.add(req, figure1Release(60))
		m.ledger.add(req, []ledgerRelease{figure1Release(float64(i)), nilSigmas, emptySigmas, rounded}[i%4])
	}
	m.ledger.mu.Unlock()
	m.record(HistoryEntry{Requester: "zed", Query: "q", Sources: []string{"s"}})

	byReq := map[string][]ledgerRelease{"empty": {}}
	for _, req := range reqs {
		byReq[req] = m.ledger.releasesOf(req)
	}
	want, err := json.Marshal(struct {
		Releases map[string][]ledgerRelease `json:"releases"`
		History  []HistoryEntry             `json:"history"`
	}{byReq, m.History()})
	if err != nil {
		t.Fatal(err)
	}
	if got := encodedState(t, m); !bytes.Equal(got, want) {
		t.Fatalf("snapshot\n got %s\nwant %s", got, want)
	}
	if !bytes.Contains(want, []byte(`"empty":[]`)) ||
		!bytes.Contains(want, []byte(`"\ufffdbad":`)) || bytes.Count(want, []byte(`"a":"test"`)) != 18 ||
		bytes.Count(want, []byte(`"tol":0.05}`)) != 2 {
		t.Fatalf("the reference does not cover every case: %s", want)
	}
}

// Retained bytes per requester: with one repeated release a new
// requester keeps its name and one id, where the parent kept a whole
// release each (374 B); with every release distinct, the table slot and
// the index entry cost a little over the release itself. The requester
// map dominates the first figure, and its per-entry cost swings by a
// third with where its tables stand in their growth, so the figures are
// averages over 100,000 requesters.
func TestLedgerRetainedBytesPerRequester(t *testing.T) {
	for _, tc := range []struct {
		name     string
		distinct bool
		max      float64
	}{{"repeated", false, 100}, {"distinct", true, 460}} {
		t.Run(tc.name, func(t *testing.T) {
			l := newReleaseLedger()
			const warm, n = 1000, 100000
			add := func(i int) {
				rel := figure1Release(60)
				if tc.distinct {
					rel = figure1Release(float64(i))
				}
				l.mu.Lock()
				l.add(fmt.Sprint("requester-", i), rel)
				l.mu.Unlock()
			}
			for i := 0; i < warm; i++ {
				add(i)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+n; i++ {
				add(i)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
			t.Logf("%.1f bytes retained per requester, %d table entries", per, len(l.rels))
			if per > tc.max {
				t.Errorf("%.1f bytes retained per requester, want ≤ %.0f", per, tc.max)
			}
			runtime.KeepAlive(l)
		})
	}
}
