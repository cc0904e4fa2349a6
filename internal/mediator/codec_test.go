package mediator

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"privateiye/internal/piql"
	"privateiye/internal/psi"
	"privateiye/internal/source"
	"privateiye/internal/stats"
	"privateiye/internal/xmltree"
)

// forgingEndpoint answers like the endpoint it wraps, after forge has had
// its way with the envelope.
type forgingEndpoint struct {
	source.Endpoint
	forge func(*xmltree.Node)
}

func (e forgingEndpoint) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	n, err := e.Endpoint.Query(ctx, text, requester)
	if err == nil {
		e.forge(n)
	}
	return n, err
}

// A mediator's answer is read fail-closed, as a source's estloss is: an
// attribute that cannot be read, and a stale mark from an older build's
// overload path, refuse the answer instead of reading as 0, false or
// fresh.
func TestIntegratedFromNodeFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		attr, value string // value "-" removes the attribute
		ok          bool
	}{
		{"duplicates", "0", true},
		{"duplicates", "12", true},
		{"duplicates", "-", false},
		{"duplicates", "", false},
		{"duplicates", "many", false},
		{"duplicates", "-1", false},
		{"duplicates", "1.5", false},
		{"loss", "0", true},
		{"loss", "0.25", true},
		{"loss", "-", false},
		{"loss", "low", false},
		{"loss", "NaN", false},
		{"loss", "-0.1", false},
		{"loss", "1.5", false},
		{"warehouse", "true", true},
		{"warehouse", "false", true},
		{"warehouse", "-", false},
		{"warehouse", "yes", false},
		{"stale", "false", true},
		{"stale", "true", false},
		{"stale", "maybe", false},
		{"stale", "", false},
	} {
		n := IntegratedToNode(&Integrated{Result: &piql.Result{Columns: []string{"a"}}, Duplicates: 2, AggregatedLoss: 0.5})
		if tc.value == "-" {
			delete(n.Attrs, tc.attr)
		} else {
			n.SetAttr(tc.attr, tc.value)
		}
		if _, err := IntegratedFromNode(n); (err == nil) != tc.ok {
			t.Errorf("%s=%q: err = %v, want accepted %v", tc.attr, tc.value, err, tc.ok)
		}
	}
}

// An answer whose loss estimate cannot be read must not count as loss 0
// and pass the MAXLOSS control: that source's answer is denied.
func TestUnreadableLossEstimateDeniesTheSource(t *testing.T) {
	answerWith := func(estloss string) *xmltree.Node {
		n := xmltree.NewElem("answer").SetAttr("source", "s").Append(xmltree.NewElem("result"))
		if estloss != "-" {
			n.SetAttr("estloss", estloss)
		}
		return n
	}
	for _, ok := range []string{"0", "0.25", "1", "1e-3"} {
		if a, err := parseAnswer(answerWith(ok), false); err != nil || a.estLoss < 0 || a.estLoss > 1 {
			t.Errorf("estloss %q: %v", ok, err)
		}
	}
	for _, bad := range []string{"-", "", "abc", "0.5x", "NaN", "-0.1", "1.5", "+Inf"} {
		if _, err := parseAnswer(answerWith(bad), false); err == nil {
			t.Errorf("estloss %q was accepted", bad)
		}
	}

	// End to end: the tampered source is denied, the honest one answers,
	// and the integrated loss is the honest source's, not zero.
	eps := twoHospitals(t)
	eps[0] = forgingEndpoint{eps[0], func(n *xmltree.Node) { n.SetAttr("estloss", "NaN") }}
	m, err := New(Config{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	in, err := m.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if reason, denied := in.Denied["hospitalA"]; !denied || !strings.Contains(reason, "loss estimate") {
		t.Errorf("hospitalA should be denied for its loss estimate; denied = %v", in.Denied)
	}
	if len(in.Answered) != 1 || in.Answered[0] != "hospitalB" {
		t.Errorf("answered = %v, want only hospitalB", in.Answered)
	}
}

func TestQueryBodyLimit(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(m))
	defer server.Close()

	const query = "FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1"
	for _, tc := range []struct {
		name string
		size int
		want int
	}{
		{"plain", len(query), http.StatusOK},
		{"padded to the limit", source.MaxQueryBytes, http.StatusOK},
		{"padded one past the limit", source.MaxQueryBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		body := query + strings.Repeat(" ", tc.size-len(query))
		req, err := http.NewRequest(http.MethodPost, server.URL+"/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Requester", "alice")
		resp, err := server.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s (%d bytes): status %d, want %d", tc.name, tc.size, resp.StatusCode, tc.want)
		}
	}
}

func ageAnswers(rowsPerSource int) []*answer {
	var out []*answer
	for _, src := range []string{"s0", "s1", "s2"} {
		res := &piql.Result{Columns: []string{"age"}, Rows: piql.NewRows(rowsPerSource, 1)}
		for i, row := range res.Rows {
			row[0] = []string{"20-29", "30-39", "40-49", "50-59"}[i%4]
		}
		out = append(out, &answer{source: src, result: res})
	}
	return out
}

// mergeAnswers allocates per answer and per result, not per row.
func TestMergeAnswersAllocationsDoNotGrowWithRows(t *testing.T) {
	small, large := ageAnswers(10), ageAnswers(1000)
	a := testing.AllocsPerRun(20, func() { mergeAnswers(small) })
	b := testing.AllocsPerRun(20, func() { mergeAnswers(large) })
	if b > a {
		t.Errorf("mergeAnswers: %v allocs for 30 rows, %v for 3000", a, b)
	}
}

// What dedupe keeps outlives the request in the warehouse, so it must not
// be a view into the slab of everything that was shipped.
func TestDedupeResultOwnsItsRows(t *testing.T) {
	m, err := New(Config{Endpoints: twoHospitals(t)})
	if err != nil {
		t.Fatal(err)
	}
	merged := mergeAnswers(ageAnswers(100))
	out, removed, err := m.dedupe(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 4 || removed != 296 {
		t.Fatalf("kept %d rows, removed %d", len(out.Rows), removed)
	}
	want := out.Rows[0][0]
	for _, row := range merged.Rows {
		row[0] = "overwritten"
	}
	if out.Rows[0][0] != want {
		t.Fatal("dedupe's kept rows alias the merged slab")
	}
	if c := cap(out.Rows[0][:1]); c != 1 {
		t.Fatalf("kept row capacity %d: rows must be clipped to their width", c)
	}
}

// wireEndpoint answers like the endpoint it wraps, but every answer makes
// the trip through the codec an HTTP hop would give it, and the memory of
// every text the parse produced is remembered.
type wireEndpoint struct {
	source.Endpoint
	mu     sync.Mutex
	parsed [][2]uintptr // [start, end) of each parsed Text and attribute value
}

func (w *wireEndpoint) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	n, err := w.Endpoint.Query(ctx, text, requester)
	if err != nil {
		return nil, err
	}
	back, err := xmltree.ParseString(n.String())
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	back.Walk(func(n *xmltree.Node) bool {
		w.remember(n.Text)
		for _, v := range n.Attrs {
			w.remember(v)
		}
		return true
	})
	return back, nil
}

func (w *wireEndpoint) remember(s string) {
	if s != "" {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		w.parsed = append(w.parsed, [2]uintptr{p, p + uintptr(len(s))})
	}
}

// view reports whether s is (part of) a text some parse produced.
func (w *wireEndpoint) view(s string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range w.parsed {
		if r[0] <= p && p < r[1] {
			return true
		}
	}
	return false
}

// A parsed answer's text is one string per document, so a single kept
// cell would pin all of it. Nothing that outlives the request may be such
// a view: not the integrated result its caller and every coalesced
// follower get, not the warehouse entry, not a ledger release.
func TestIntegratedResultOwnsItsCells(t *testing.T) {
	check := func(t *testing.T, w *wireEndpoint, where string, texts ...string) {
		t.Helper()
		for _, s := range texts {
			if w.view(s) {
				t.Errorf("%s keeps %q as a view into a parsed answer", where, s)
			}
		}
	}
	cells := func(res *piql.Result) []string {
		out := append([]string{}, res.Columns...)
		for _, row := range res.Rows {
			out = append(out, row...)
		}
		return out
	}
	for _, tc := range []struct {
		name, query string
		endpoint    func(*testing.T) source.Endpoint
		ledgered    bool
	}{
		{"plain", "FOR //patients/row WHERE //age > 40 RETURN //age, //sex PURPOSE research MAXLOSS 0.9",
			func(t *testing.T) source.Endpoint { return twoHospitals(t)[0] }, false},
		{"aggregate", perTestQuery, func(t *testing.T) source.Endpoint { return figure1Endpoint(t) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &wireEndpoint{Endpoint: tc.endpoint(t)}
			m, err := New(Config{
				Endpoints: []source.Endpoint{w}, WarehouseCapacity: 8, WarehouseTTL: 1 << 30,
				MaxDisclosure: 0.9,
			})
			if err != nil {
				t.Fatal(err)
			}
			in, err := m.Query(tc.query, "r")
			if err != nil {
				t.Fatal(err)
			}
			if len(in.Result.Rows) == 0 || len(w.parsed) == 0 {
				t.Fatalf("nothing crossed the wire: %d rows, %d parsed texts", len(in.Result.Rows), len(w.parsed))
			}
			// The check has teeth: a cell straight off the parse is a view.
			if !w.view(w.lastCell(t, tc.query)) {
				t.Fatal("a freshly parsed cell is not recognised as a view")
			}
			check(t, w, "the integrated result", cells(in.Result)...)
			again, err := m.Query(tc.query, "r")
			if err != nil || !again.FromWarehouse {
				t.Fatalf("want the warehouse entry back, got %+v, %v", again, err)
			}
			check(t, w, "the warehouse entry", cells(again.Result)...)
			rels := m.ledger.releasesOf("r")
			if tc.ledgered != (len(rels) == 1) {
				t.Fatalf("ledger holds %d releases", len(rels))
			}
			for _, rel := range rels {
				check(t, w, "a ledger release", rel.Target, rel.ValueCol, rel.Axis)
				if tc.ledgered && (len(rel.Means) == 0 || len(rel.Sigmas) == 0) {
					t.Fatalf("release carries %d means and %d sigmas", len(rel.Means), len(rel.Sigmas))
				}
				for _, g := range append(slices.Clone(rel.Means), rel.Sigmas...) {
					check(t, w, "a ledger release's group keys", g.k)
				}
			}
			// Nor the history's interned tables, which outlive every entry
			// that first named a string.
			m.readHistory(func(h *history) {
				check(t, w, "the history's requesters", h.reqs...)
				check(t, w, "the history's query texts", h.texts...)
				for _, l := range h.lists {
					check(t, w, "the history's source lists", l...)
				}
			})
		})
	}
}

// lastCell asks the wrapped endpoint once more and returns a cell of the
// answer as parsed.
func (w *wireEndpoint) lastCell(t *testing.T, query string) string {
	t.Helper()
	n, err := w.Query(context.Background(), query, "r")
	if err != nil {
		t.Fatal(err)
	}
	rows := n.Child("result").Children
	return rows[len(rows)-1].Children[0].Text
}

// rewritingEndpoint rewrites every exponentiated column on the way back:
// f gets the envelope the source wrote, the column's element bytes and
// their width, and changes the envelope in place.
type rewritingEndpoint struct {
	source.Endpoint
	f func(n *xmltree.Node, raw []byte, size int)
}

func (r rewritingEndpoint) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	n, err := r.Endpoint.PSIExponentiate(ctx, elems)
	if err != nil {
		return n, err
	}
	s, err := psi.SuiteByName(psi.WireSuiteName(n))
	if err != nil {
		return nil, err
	}
	raw, err := base64.RawStdEncoding.DecodeString(n.Text)
	if err != nil {
		return nil, err
	}
	r.f(n, raw, s.ElementSize())
	return n, nil
}

// droppingEndpoint loses the last element of every exponentiated column,
// leaving its n as the source wrote it.
func droppingEndpoint(ep source.Endpoint) source.Endpoint {
	return rewritingEndpoint{ep, func(n *xmltree.Node, raw []byte, size int) {
		n.Text = base64.RawStdEncoding.EncodeToString(raw[:len(raw)-size])
	}}
}

// respellingEndpoint answers with the column's packed text rewritten by f.
func respellingEndpoint(ep source.Endpoint, f func(text string) string) source.Endpoint {
	return rewritingEndpoint{ep, func(n *xmltree.Node, _ []byte, _ int) { n.Text = f(n.Text) }}
}

// perElementEndpoint answers in the form of builds before the packed
// text: one <e> child of lowercase hex per element, and no text.
func perElementEndpoint(ep source.Endpoint) source.Endpoint {
	return rewritingEndpoint{ep, func(n *xmltree.Node, raw []byte, size int) {
		n.Text = ""
		for ; len(raw) > 0; raw = raw[size:] {
			n.Append(xmltree.NewText("e", hex.EncodeToString(raw[:size])))
		}
	}}
}

// regroupingEndpoint answers every exponentiation with its own column in
// modp2048: a whole, canonical envelope, in another group than the one
// it was asked in.
type regroupingEndpoint struct{ source.Endpoint }

func (r regroupingEndpoint) PSIExponentiate(ctx context.Context, _ *xmltree.Node) (*xmltree.Node, error) {
	return r.Endpoint.PSIBlinded(ctx, "name", psi.SuiteNameModP2048)
}

// The relay compares elements, so a column that arrives short, in another
// spelling or in another group would miscount the overlap without anyone
// noticing. It is refused instead, whichever of the two sources it came
// back from.
func TestPrivateOverlapRefusesDamagedColumns(t *testing.T) {
	a := registry(t, "A", "alice", "bob", "carol", "dave")
	b := registry(t, "B", "carol", "erin", "alice")
	ctx := context.Background()
	// Mediator.Overlap's two steps, over endpoints no mediator is built
	// on.
	overlap := func(a, b source.Endpoint) (int, error) {
		aBlind, bBlind, err := blindBoth(ctx, a, b, "name", "")
		if err != nil {
			return 0, err
		}
		return countOverlap(ctx, a, b, aBlind, bBlind)
	}
	if n, err := overlap(a, b); err != nil || n != 2 {
		t.Fatalf("intact relay: overlap %d, %v", n, err)
	}
	newline := func(text string) string { return text[:5] + "\n" + text[6:] }
	padded := func(text string) string { return text + "=" }
	trailing := func(text string) string {
		// A four-element x25519 column is 128 bytes: two unused bits.
		const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
		return text[:len(text)-1] + string(alphabet[strings.IndexByte(alphabet, text[len(text)-1])|1])
	}
	for _, tc := range []struct {
		name string
		a, b source.Endpoint
		want string
	}{
		{"B drops an element of A's column", a, droppingEndpoint(b), `n="4"`},
		{"A drops an element of B's column", droppingEndpoint(a), b, `n="3"`},
		{"B breaks a line in A's column", a, respellingEndpoint(b, newline), "element 0"},
		{"A breaks a line in B's column", respellingEndpoint(a, newline), b, "element 0"},
		{"B pads A's column", a, respellingEndpoint(b, padded), `n="4"`},
		{"B sets A's column's trailing bits", a, respellingEndpoint(b, trailing), "element 3"},
		{"B answers per element", a, perElementEndpoint(b), "child elements"},
		{"A answers per element", perElementEndpoint(a), b, "child elements"},
		{"B answers in another group", a, regroupingEndpoint{b}, "diverge"},
		{"A answers in another group", regroupingEndpoint{a}, b, "diverge"},
	} {
		n, err := overlap(tc.a, tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: overlap %d, err %v; want a refusal naming %s", tc.name, n, err, tc.want)
		}
	}
}

// walRecordCases are records of every kind live code writes, with the values where the
// record writer and encoding/json could part: sigmas nil, empty (both
// left out) and set, strings encoding/json
// escapes in each place one can stand, nil, empty and set lists, and the
// edges of the float format.
func walRecordCases() map[string]walRecord {
	fig := groupValues{{"Eye Exam", 45.414}, {"HbA1c", 82.97500000000001}, {"Lipid Profile", 54.104749999999996}}
	rel := func(target string, means, sigmas groupValues) *ledgerRelease {
		return &ledgerRelease{Target: target, ValueCol: "rate", Axis: "test", Means: means, Sigmas: sigmas}
	}
	entry := func(req, query string, sources, denied []string) *HistoryEntry {
		return &HistoryEntry{Requester: req, Query: query, Sources: sources, Denied: denied, Clock: 2}
	}
	rounded := func(places int) *ledgerRelease {
		r := rel("//compliance/row", groupValues{{"Eye Exam", 45}, {"HbA1c", 83}}, groupValues{{"HbA1c", 2}})
		r.Tol = stats.RoundingHalfWidth(places)
		return r
	}
	const odd = "<b>&\"naïve\"\x01\t\u2028日本\xff"
	return map[string]walRecord{
		"release":                    {Kind: kindRelease, Requester: "snooper", Release: rel("//compliance/row", fig, fig)},
		"release, sigmas nil":        {Kind: kindRelease, Requester: "snooper", Release: rel("//compliance/row", fig, nil)},
		"release, sigmas empty":      {Kind: kindRelease, Requester: "snooper", Release: rel("//compliance/row", fig, groupValues{})},
		"release, means nil":         {Kind: kindRelease, Requester: "snooper", Release: rel("//compliance/row", nil, nil)},
		"release, means empty":       {Kind: kindRelease, Requester: "snooper", Release: rel("//compliance/row", groupValues{}, nil)},
		"release, rounded":           {Kind: kindRelease, Requester: "snooper", Release: rounded(0)},
		"release, rounded to 2":      {Kind: kindRelease, Requester: "snooper", Release: rounded(2)},
		"release, rounded to 7":      {Kind: kindRelease, Requester: "snooper", Release: rounded(7)},
		"release, escaped strings":   {Kind: kindRelease, Requester: odd, Release: rel("//compliance/row WHERE //hmo = '"+odd+"'", groupValues{{odd, 1}}, nil)},
		"release, float edges":       {Kind: kindRelease, Requester: "r", Release: rel("t", groupValues{{"a", 1e-9}, {"b", -1e-10}, {"c", 1e21}, {"d", 1e20}, {"e", math.Copysign(0, -1)}, {"f", 5e-324}}, groupValues{{"a", 1e-7}})},
		"release with history entry": {Kind: kindRelease, Requester: "snooper", Release: rel("//compliance/row", fig, fig), History: entry("snooper", "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9", []string{"integrator"}, []string{})},
		"release, escaped entry":     {Kind: kindRelease, Requester: odd, Release: rel("t", fig, nil), History: entry(odd, odd, []string{odd}, []string{odd, "b"})},
		"history":                    {Kind: kindHistory, History: entry("r", "q", []string{"hospitalA", "hospitalB"}, []string{"hospitalC"})},
		"history, warehouse hit":     {Kind: kindHistory, History: entry("r", "q", []string{"warehouse"}, nil)},
		"history, sources nil":       {Kind: kindHistory, History: entry("r", "q", nil, nil)},
		"history, sources empty":     {Kind: kindHistory, History: entry("r", "q", []string{}, []string{})},
		"history, escaped strings":   {Kind: kindHistory, History: entry(odd, odd, []string{odd}, []string{odd})},
		"history, zero clock":        {Kind: kindHistory, History: &HistoryEntry{Requester: "r"}},
	}
}

// The WAL's record writer writes exactly the bytes json.Marshal writes
// for the record, and for the record decodeRecord reads back from them (a
// string that is not UTF-8 comes back with U+FFFD in it, which both then
// write as itself).
func TestWALRecordEncodesAsJSONMarshal(t *testing.T) {
	for name, rec := range walRecordCases() {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := appendWALRecord([]byte("prefix"), &rec)
		if err != nil || !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("%s:\n got %s (%v)\nwant %s", name, got, err, want)
			continue
		}
		back, err := decodeRecord(1, want)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ = json.Marshal(back)
		if again, err := appendWALRecord(nil, &back); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s read back:\n got %s (%v)\nwant %s", name, again, err, want)
		}
	}
}

// A value encoding/json refuses, the record writer refuses too: an
// answer carrying one is unrecordable, not logged in some other form.
func TestWALRecordRefusesWhatJSONMarshalRefuses(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []ledgerRelease{
			{Means: groupValues{{"a", 1}, {"b", bad}}},
			{Means: groupValues{{"a", 1}}, Sigmas: groupValues{{"a", bad}}},
		} {
			rec := walRecord{Kind: kindRelease, Requester: "r", Release: &r, History: &HistoryEntry{}}
			if _, err := json.Marshal(rec); err == nil {
				t.Fatalf("json.Marshal accepted %v", bad)
			}
			if b, err := appendWALRecord(nil, &rec); err == nil {
				t.Errorf("%v written as %s", bad, b)
			}
		}
	}
}

// FuzzAppendWALRecord holds the record writer to json.Marshal over
// arbitrary strings, floats and shapes (`make fuzz`).
func FuzzAppendWALRecord(f *testing.F) {
	f.Add(uint8(0), "snooper", "//compliance/row", "FOR //compliance/row RETURN //rate", "HbA1c", 82.97500000000001, uint64(0))
	f.Add(uint8(1), "<a&b>", "t WHERE //x = 'naïve'", "\x01\t\u2028", "\xff", 1e-9, uint64(7))
	f.Add(uint8(6), "", "", "", "", 1e21, uint64(1))
	f.Add(uint8(9), "snooper", "//compliance/row", "q", "HbA1c", 5e-7, uint64(3))
	f.Fuzz(func(t *testing.T, shape uint8, req, target, query, group string, v float64, clock uint64) {
		rec := walRecord{Kind: kindRelease, Requester: req,
			Release: &ledgerRelease{Target: target, ValueCol: group, Axis: query, Means: groupValues{{group, v}}}}
		if shape&1 != 0 {
			rec.Release.Sigmas = groupValues{{group, -v}, {req, v / 3}}
		}
		if shape&8 != 0 {
			rec.Release.Tol = v
		}
		if shape&2 != 0 {
			rec.History = &HistoryEntry{Requester: req, Query: query, Sources: []string{target, group}, Clock: int64(clock)}
		}
		if shape&4 != 0 {
			rec = walRecord{Kind: kindHistory, History: &HistoryEntry{Requester: req, Query: query, Denied: []string{}}}
		}
		want, wantErr := json.Marshal(rec)
		got, err := appendWALRecord(nil, &rec)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("record writer: %s (%v)\njson.Marshal: %s (%v)", got, err, want, wantErr)
		}
	})
}

// An answer with several denials renders to the same bytes every time:
// its <denied> elements are written in source-name order.
func TestIntegratedToNodeWritesDenialsInOrder(t *testing.T) {
	in := &Integrated{
		Result:   &piql.Result{Columns: []string{"a"}},
		Answered: []string{"alpha"},
		Denied:   map[string]string{"gamma": "timeout: no answer", "beta": "query fully denied", "delta": "skipped: circuit open"},
	}
	want := IntegratedToNode(in).String()
	for i := 0; i < 20; i++ {
		if got := IntegratedToNode(in).String(); got != want {
			t.Fatalf("render %d differs:\n%s\nwant\n%s", i, got, want)
		}
	}
	var order []string
	for _, d := range IntegratedToNode(in).ChildrenNamed("denied") {
		src, _ := d.Attr("source")
		order = append(order, src)
	}
	if !slices.Equal(order, []string{"beta", "delta", "gamma"}) {
		t.Errorf("denials written in order %v, want source-name order", order)
	}
}
