package source

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"privateiye/internal/psi"
	"privateiye/internal/schemamatch"
	"privateiye/internal/xmltree"
)

// sharedPaths is what a summary's wire form carries of each path: the
// path and its leaf flag, in Paths' order (occurrence counts stay at the
// source).
func sharedPaths(s *xmltree.Summary) []xmltree.PathInfo {
	out := s.Paths()
	for i := range out {
		out[i].Count = 0
	}
	return out
}

// An older mediator reads GET /summary with xmltree.SummaryFromNode,
// which knows only <path> children: a describe answer gives it exactly
// the summary the source shares.
func TestDescribeAnswerReadsAsOlderSummary(t *testing.T) {
	local, err := NewLocal(hospitalSource(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	resp, err := server.Client().Get(server.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	n, err := xmltree.ParseBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := local.Describe(bg)
	want, got := sharedPaths(d.Summary), sharedPaths(xmltree.SummaryFromNode(n))
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("an older reader's summary:\n got %v\nwant %v", got, want)
	}
	if n.Child("profiles") == nil || n.Child("psi-suites") == nil {
		t.Errorf("GET /summary = %s, want <profiles> and <psi-suites> beside the paths", body)
	}
	// Its other two schema calls get a 404, which it reads as no
	// profiles and as the modp2048 floor.
	for _, route := range []string{"/profiles", "/psi/suites"} {
		resp, err := server.Client().Get(server.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", route, resp.StatusCode)
		}
	}
}

// An answer's parts decode independently and fail closed: <profiles>
// that will not decode read as none with the summary kept, and no
// <psi-suites>, an empty one or one of blank names read as no
// advertisement, which schema refresh holds to modp2048.
func TestDescriptionFromNodeFailsClosed(t *testing.T) {
	paths := `<path p="/t" /><path leaf="true" p="/t/a" />`
	for _, c := range []struct {
		name, doc string
		profiles  int
		suites    []string
	}{
		{"whole", `<summary>` + paths + `<profiles><field avglen="2" distinct="1" name="a" numeric="0" samples="3" /></profiles><psi-suites><s>x25519</s><s>modp2048</s></psi-suites></summary>`, 1, []string{psi.SuiteNameX25519, psi.SuiteNameModP2048}},
		{"older build", `<summary>` + paths + `</summary>`, 0, nil},
		{"garbled profiles", `<summary>` + paths + `<profiles><field avglen="two" name="a" /></profiles><psi-suites><s>x25519</s></psi-suites></summary>`, 0, []string{psi.SuiteNameX25519}},
		{"nameless profile", `<summary>` + paths + `<profiles><field avglen="2" /></profiles></summary>`, 0, nil},
		{"empty suites", `<summary>` + paths + `<profiles /><psi-suites /></summary>`, 0, nil},
		{"blank suite names", `<summary>` + paths + `<psi-suites><s></s><x>x25519</x></psi-suites></summary>`, 0, nil},
	} {
		n, err := xmltree.ParseString(c.doc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := descriptionFromNode(n)
		if d.Summary.Len() != 2 || !d.Summary.Has("/t/a") {
			t.Errorf("%s: summary %v, want its two paths kept", c.name, sharedPaths(d.Summary))
		}
		if len(d.Profiles) != c.profiles || (c.profiles == 0 && d.Profiles != nil) {
			t.Errorf("%s: profiles %v, want %d", c.name, d.Profiles, c.profiles)
		}
		if !slices.Equal(d.Suites, c.suites) {
			t.Errorf("%s: suites %v, want %v", c.name, d.Suites, c.suites)
		}
	}
}

// sameDescription reports whether a and b describe a source alike:
// the same paths, profiles (floats compared bit for bit, so that a NaN
// equals itself) and suites.
func sameDescription(a, b *Description) bool {
	return slices.Equal(a.Summary.Paths(), b.Summary.Paths()) &&
		slices.Equal(a.Suites, b.Suites) &&
		slices.EqualFunc(a.Profiles, b.Profiles, func(x, y schemamatch.FieldProfile) bool {
			return x.Name == y.Name && x.Samples == y.Samples &&
				math.Float64bits(x.AvgLen) == math.Float64bits(y.AvgLen) &&
				math.Float64bits(x.NumericFrac) == math.Float64bits(y.NumericFrac) &&
				math.Float64bits(x.DistinctFrac) == math.Float64bits(y.DistinctFrac)
		})
}

// FuzzDescriptionFromNode pins the reader of GET /summary, an answer
// from outside the process: it never panics, and what it decodes
// survives its own round trip — encoded, parsed and decoded again, a
// description comes back equal.
func FuzzDescriptionFromNode(f *testing.F) {
	local, err := NewLocal(hospitalSource(f), nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	d, err := local.Describe(bg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(d.toNode().String())
	f.Add(d.Summary.ToNode().String())
	f.Add(`<summary><path p="/t" /><profiles><field avglen="x" /><field name="a" samples="1e400" /></profiles><psi-suites><s>p256</s><s /></psi-suites></summary>`)
	f.Add(`<summary><path /><profiles /><psi-suites /><psi-suites><s>x25519</s></psi-suites></summary>`)
	f.Fuzz(func(t *testing.T, doc string) {
		n, err := xmltree.ParseString(doc)
		if err != nil {
			return
		}
		d := descriptionFromNode(n)
		wire := d.toNode().String()
		again, err := xmltree.ParseString(wire)
		if err != nil {
			t.Fatalf("a decoded description's encoding does not parse: %v\n%s", err, wire)
		}
		if back := descriptionFromNode(again); !sameDescription(d, back) {
			t.Fatalf("round trip changed the description:\n was %+v\n now %+v\nwire %s", *d, *back, wire)
		}
	})
}
