package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

const patientDoc = `
<patients>
  <patient id="p1">
    <name>Alice Ang</name>
    <dob>1971-03-05</dob>
    <diagnosis>diabetes</diagnosis>
    <tests>
      <test type="HbA1c">done</test>
      <test type="eye">pending</test>
    </tests>
  </patient>
  <patient id="p2">
    <name>Bob Baker</name>
    <dob>1980-11-30</dob>
  </patient>
</patients>`

func mustParse(t *testing.T, s string) *Node {
	t.Helper()
	n, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestParseStructure(t *testing.T) {
	root := mustParse(t, patientDoc)
	if root.Name != "patients" {
		t.Fatalf("root = %q, want patients", root.Name)
	}
	ps := root.ChildrenNamed("patient")
	if len(ps) != 2 {
		t.Fatalf("patients = %d, want 2", len(ps))
	}
	if got := ps[0].ChildText("name"); got != "Alice Ang" {
		t.Errorf("name = %q", got)
	}
	if id, _ := ps[0].Attr("id"); id != "p1" {
		t.Errorf("id = %q", id)
	}
	tests := ps[0].Child("tests").ChildrenNamed("test")
	if len(tests) != 2 {
		t.Fatalf("tests = %d, want 2", len(tests))
	}
	if ty, _ := tests[0].Attr("type"); ty != "HbA1c" {
		t.Errorf("type = %q", ty)
	}
	if tests[0].Text != "done" {
		t.Errorf("text = %q", tests[0].Text)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"<a><b></a></b>",
		"<a></a><b></b>",
		"<a>",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
}

func TestPath(t *testing.T) {
	root := mustParse(t, patientDoc)
	dob := root.ChildrenNamed("patient")[0].Child("dob")
	if got := dob.Path(); got != "/patients/patient/dob" {
		t.Errorf("Path = %q", got)
	}
	if got := root.Path(); got != "/patients" {
		t.Errorf("root Path = %q", got)
	}
}

func TestRoundTrip(t *testing.T) {
	root := mustParse(t, patientDoc)
	again := mustParse(t, root.String())
	if !Equal(root, again) {
		t.Fatalf("serialize/parse round trip changed the tree:\n%s\nvs\n%s", root, again)
	}
}

func TestEscaping(t *testing.T) {
	n := NewText("note", `a <b> & "c"`)
	n.SetAttr("k", `v<&>"`)
	parsed := mustParse(t, n.String())
	if parsed.Text != `a <b> & "c"` {
		t.Errorf("text round trip = %q", parsed.Text)
	}
	if v, _ := parsed.Attr("k"); v != `v<&>"` {
		t.Errorf("attr round trip = %q", v)
	}

	// Attribute values are XML-escaped, not Go-quoted: a backslash, DEL,
	// NBSP or U+2028 must come back as itself, not as a Go escape
	// sequence (refusal reasons and source names travel as attributes).
	for _, v := range []string{`a\b`, "del\x7f", "nbsp\u00a0", "ls\u2028", `C:\dir\"q"`} {
		n := NewElem("dropped").SetAttr("reason", v)
		if got, _ := mustParse(t, n.String()).Attr("reason"); got != v {
			t.Errorf("attr %q round trip = %q (wire %q)", v, got, n.String())
		}
	}
}

func TestCloneIsDeepAndDetached(t *testing.T) {
	root := mustParse(t, patientDoc)
	c := root.Clone()
	if !Equal(root, c) {
		t.Fatal("clone differs")
	}
	if c.Parent != nil {
		t.Fatal("clone parent should be nil")
	}
	// Mutating the clone must not affect the original.
	c.ChildrenNamed("patient")[0].Child("dob").Text = "REDACTED"
	if root.ChildrenNamed("patient")[0].ChildText("dob") == "REDACTED" {
		t.Fatal("clone shares state with original")
	}
}

func TestRemove(t *testing.T) {
	root := mustParse(t, patientDoc)
	p1 := root.ChildrenNamed("patient")[0]
	dob := p1.Child("dob")
	dob.Remove()
	if p1.Child("dob") != nil {
		t.Fatal("dob should be removed")
	}
	if dob.Parent != nil {
		t.Fatal("removed node should have nil parent")
	}
	// Removing an already-detached node is a no-op.
	dob.Remove()
}

func TestWalkPrune(t *testing.T) {
	root := mustParse(t, patientDoc)
	var visited []string
	root.Walk(func(n *Node) bool {
		visited = append(visited, n.Name)
		return n.Name != "patient" // prune below patients
	})
	for _, name := range visited {
		if name == "dob" || name == "name" {
			t.Fatalf("walk did not prune: visited %v", visited)
		}
	}
}

func TestDescendantsCount(t *testing.T) {
	root := mustParse(t, patientDoc)
	// patients + 2 patient + (name,dob,diagnosis,tests,2 test) + (name,dob)
	if got := len(root.Descendants()); got != 11 {
		t.Fatalf("descendants = %d, want 11", got)
	}
}

func TestSummary(t *testing.T) {
	root := mustParse(t, patientDoc)
	s := NewSummary()
	s.AddDocument(root)
	if !s.Has("/patients/patient/dob") {
		t.Fatal("summary missing dob path")
	}
	paths := s.Paths()
	byPath := map[string]PathInfo{}
	for _, p := range paths {
		byPath[p.Path] = p
	}
	if byPath["/patients/patient"].Count != 2 {
		t.Errorf("patient count = %d, want 2", byPath["/patients/patient"].Count)
	}
	if !byPath["/patients/patient/dob"].Leaf {
		t.Error("dob should be a leaf")
	}
	if byPath["/patients/patient/tests"].Leaf {
		t.Error("tests should not be a leaf")
	}
}

func TestSummaryRedactAndMerge(t *testing.T) {
	root := mustParse(t, patientDoc)
	s := NewSummary()
	s.AddDocument(root)
	red := s.Redact(func(p string) bool { return strings.Contains(p, "dob") })
	if red.Has("/patients/patient/dob") {
		t.Fatal("redacted summary still exposes dob")
	}
	if !red.Has("/patients/patient/name") {
		t.Fatal("redaction dropped an unrelated path")
	}
	// The original is untouched.
	if !s.Has("/patients/patient/dob") {
		t.Fatal("Redact mutated the receiver")
	}

	other := NewSummary()
	other.AddDocument(mustParse(t, `<patients><patient><ssn>123</ssn></patient></patients>`))
	red.Merge(other)
	if !red.Has("/patients/patient/ssn") {
		t.Fatal("merge missed new path")
	}
}

func TestSummaryLeafNames(t *testing.T) {
	root := mustParse(t, patientDoc)
	s := NewSummary()
	s.AddDocument(root)
	names := s.LeafNames()
	want := map[string]bool{"name": true, "dob": true, "diagnosis": true, "test": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected leaf name %q", n)
		}
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing leaf names: %v", want)
	}
}

func TestSummaryNodeRoundTrip(t *testing.T) {
	root := mustParse(t, patientDoc)
	s := NewSummary()
	s.AddDocument(root)
	back := SummaryFromNode(s.ToNode())
	if back.Len() != s.Len() {
		t.Fatalf("round trip lost paths: %d vs %d", back.Len(), s.Len())
	}
	for _, p := range s.Paths() {
		if !back.Has(p.Path) {
			t.Errorf("round trip lost %q", p.Path)
		}
	}
}

func TestChildTextMissing(t *testing.T) {
	n := NewElem("x")
	if got := n.ChildText("nope"); got != "" {
		t.Errorf("ChildText on missing child = %q", got)
	}
}

// Property: Clone always yields an Equal tree, for random trees.
func TestCloneEqualProperty(t *testing.T) {
	gen := func(seed int64) *Node {
		// Build a small deterministic random tree from the seed.
		state := uint64(seed)
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % n
		}
		names := []string{"a", "b", "c", "d"}
		var build func(depth int) *Node
		build = func(depth int) *Node {
			n := NewElem(names[next(len(names))])
			if next(2) == 0 {
				n.Text = names[next(len(names))]
			}
			if depth < 3 {
				for i := 0; i < next(4); i++ {
					n.Append(build(depth + 1))
				}
			}
			return n
		}
		return build(0)
	}
	f := func(seed int64) bool {
		n := gen(seed)
		return Equal(n, n.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ChildrenNamed sizes its result once: one allocation at 16 matching
// children and at 1,024, none when nothing matches.
func TestChildrenNamedAllocatesOnce(t *testing.T) {
	for _, n := range []int{16, 1024} {
		root := NewElem("list")
		for i := 0; i < n; i++ {
			root.Append(NewText("e", "x"))
			root.Append(NewText("other", "y"))
		}
		var got []*Node
		allocs := testing.AllocsPerRun(50, func() { got = root.ChildrenNamed("e") })
		if allocs != 1 || len(got) != n || cap(got) != n {
			t.Fatalf("%d children: %v allocs, len %d cap %d; want 1 allocation of exactly %d", n, allocs, len(got), cap(got), n)
		}
		if none := testing.AllocsPerRun(50, func() { got = root.ChildrenNamed("absent") }); none != 0 || got != nil {
			t.Fatalf("no match: %v allocs, %v", none, got)
		}
	}
}
