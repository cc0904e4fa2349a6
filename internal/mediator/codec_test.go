package mediator

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privateiye/internal/piql"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// estlossEndpoint answers like the endpoint it wraps but rewrites (or,
// for "-", removes) the estloss attribute of every answer.
type estlossEndpoint struct {
	source.Endpoint
	estloss string
}

func (e estlossEndpoint) Query(ctx context.Context, text, requester string) (*xmltree.Node, error) {
	n, err := e.Endpoint.Query(ctx, text, requester)
	if err != nil {
		return nil, err
	}
	if e.estloss == "-" {
		delete(n.Attrs, "estloss")
	} else {
		n.SetAttr("estloss", e.estloss)
	}
	return n, nil
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
		if a, err := parseAnswer(answerWith(ok)); err != nil || a.estLoss < 0 || a.estLoss > 1 {
			t.Errorf("estloss %q: %v", ok, err)
		}
	}
	for _, bad := range []string{"-", "", "abc", "0.5x", "NaN", "-0.1", "1.5", "+Inf"} {
		if _, err := parseAnswer(answerWith(bad)); err == nil {
			t.Errorf("estloss %q was accepted", bad)
		}
	}

	// End to end: the tampered source is denied, the honest one answers,
	// and the integrated loss is the honest source's, not zero.
	eps := twoHospitals(t)
	eps[0] = estlossEndpoint{Endpoint: eps[0], estloss: "NaN"}
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
