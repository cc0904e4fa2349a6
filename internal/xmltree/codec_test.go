package xmltree

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// referenceParse is the encoding/xml loop Parse was before the tokenizer,
// kept verbatim (down to the per-node empty Attrs map, which Equal does
// not see) as the definition the differential tests compare against, but
// for one rule: an element or attribute whose local name does not read
// back as itself on its own (the "0" of <A:0/>) is refused, because no
// writer can emit it.
func referenceParse(r io.Reader) (*Node, error) {
	standalone := func(name string) bool {
		tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		se, ok := tok.(xml.StartElement)
		return err == nil && ok && se.Name == xml.Name{Local: name}
	}
	dec := xml.NewDecoder(r)
	var root, cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !standalone(t.Name.Local) {
				return nil, fmt.Errorf("xmltree: parse: element name %q", t.Name.Local)
			}
			n := &Node{Name: t.Name.Local, Attrs: map[string]string{}}
			for _, a := range t.Attr {
				if !standalone(a.Name.Local) {
					return nil, fmt.Errorf("xmltree: parse: attribute name %q", a.Name.Local)
				}
				n.Attrs[a.Name.Local] = a.Value
			}
			if cur == nil {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple document roots")
				}
				root = n
			} else {
				cur.Append(n)
			}
			cur = n
		case xml.EndElement:
			if cur == nil {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			if cur != nil {
				cur.Text += strings.TrimSpace(string(t))
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if cur != nil {
		return nil, fmt.Errorf("xmltree: unclosed element %q", cur.Name)
	}
	return root, nil
}

// referenceEncode is the fmt-based writer Encode was, with its one defect
// removed (attribute values are quoted with plain '"' instead of Go's %q)
// and in the compact form Encode writes: no whitespace between elements.
// indented writes the form of the writer before that: each element on a
// line of its own, indented two spaces a level, as an older peer sends.
func referenceEncode(n *Node, w io.Writer, indented bool, depth int) {
	escape := func(s string) string {
		var b strings.Builder
		if err := xml.EscapeText(&b, []byte(s)); err != nil {
			return s
		}
		return b.String()
	}
	indent, nl := "", ""
	if indented {
		indent, nl = strings.Repeat("  ", depth), "\n"
	}
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var attrs strings.Builder
	for _, k := range keys {
		attrs.WriteString(" " + k + `="` + escape(n.Attrs[k]) + `"`)
	}
	switch {
	case len(n.Children) == 0 && n.Text == "":
		fmt.Fprintf(w, "%s<%s%s/>%s", indent, n.Name, attrs.String(), nl)
	case len(n.Children) == 0:
		fmt.Fprintf(w, "%s<%s%s>%s</%s>%s", indent, n.Name, attrs.String(), escape(n.Text), n.Name, nl)
	default:
		fmt.Fprintf(w, "%s<%s%s>%s%s", indent, n.Name, attrs.String(), escape(n.Text), nl)
		for _, c := range n.Children {
			referenceEncode(c, w, indented, depth+1)
		}
		fmt.Fprintf(w, "%s</%s>%s", indent, n.Name, nl)
	}
}

// The corpus: one of each envelope kind the tier ships, in the shapes
// source.tag, psi.MarshalElems, policy.ToNode and Summary.ToNode build.

func answerNode(rows int) *Node {
	res := NewElem("result")
	for i := 0; i < rows; i++ {
		decade := 10 * (2 + i%7)
		res.Append(NewElem("row").Append(NewText("age", fmt.Sprintf("%d-%d", decade, decade+9))))
	}
	return NewElem("answer").
		SetAttr("source", "s0").
		SetAttr("breach", "linking").
		SetAttr("technique", "generalize(age,age@1)+drop(name,id,ssn)").
		SetAttr("budget", "0.9").
		SetAttr("estloss", "0.5").
		Append(NewText("dropped", "//name").SetAttr("reason", `policy "default" denies <name> & id`)).
		Append(res)
}

// psiNode is a column of n 32-byte elements packed into one base64 text.
func psiNode(n int) *Node {
	raw := make([]byte, 32*n)
	for i := range raw {
		raw[i] = byte(i * 2654435761 >> 13)
	}
	return NewText("psi-elems", base64.RawStdEncoding.EncodeToString(raw)).
		SetAttr("n", strconv.Itoa(n)).SetAttr("suite", "x25519")
}

func policyNode() *Node {
	return NewElem("policy").SetAttr("owner", "hospitalA").SetAttr("default", "deny").
		Append(NewElem("rule").SetAttr("item", "//patient/diagnosis").SetAttr("purpose", "epidemiology").
			SetAttr("form", "aggregate").SetAttr("effect", "allow").SetAttr("maxloss", "0.2")).
		Append(NewElem("rule").SetAttr("item", "//patient/name").SetAttr("purpose", "*").
			SetAttr("form", "exact").SetAttr("effect", "deny"))
}

func summaryNode() *Node {
	s := NewSummary()
	s.AddDocument(mustParseString(patientDoc))
	return s.ToNode()
}

// Equal reports deep equality of two subtrees (names, attrs, text,
// children, order-sensitive).
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Text != b.Text || len(a.Children) != len(b.Children) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for k, v := range a.Attrs {
		if bv, ok := b.Attrs[k]; !ok || bv != v {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func mustParseString(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

func corpus() map[string]*Node { return corpusOf(273, 500) }

// fuzzSeeds is the corpus at sizes the fuzzer can mutate and minimize
// quickly.
func fuzzSeeds() map[string]*Node { return corpusOf(3, 2) }

func corpusOf(rows, elems int) map[string]*Node {
	return map[string]*Node{
		"answer":  answerNode(rows),
		"psi":     psiNode(elems),
		"policy":  policyNode(),
		"summary": summaryNode(),
		"patient": mustParseString(patientDoc),
	}
}

// onFastPath reports whether the tokenizer takes doc without failing over.
func onFastPath(doc string) bool {
	p := parserPool.Get().(*parser)
	defer p.release()
	p.body = append(p.body[:0], doc...)
	_, ok := p.tokenize()
	return ok
}

func TestEncodeMatchesReferenceWriter(t *testing.T) {
	trees := corpus()
	trees["escapes"] = NewText("note", "a <b> & \"c\" 'd'\ttab\nnl\rcr \x01 \xff é  ").
		SetAttr("k", "v<&>\"'\t\n\r\x01\xff é").SetAttr("a", "").
		Append(NewText("kid", "x"), NewElem("empty"))
	for name, n := range trees {
		var want bytes.Buffer
		referenceEncode(n, &want, false, 0)
		if got := n.String(); got != want.String() {
			t.Errorf("%s: writer output differs from the reference:\n got %q\nwant %q", name, got, want.String())
		}
		var buf bytes.Buffer
		if err := n.Encode(&buf); err != nil || buf.String() != want.String() {
			t.Errorf("%s: Encode differs from String (err %v)", name, err)
		}
	}
}

// A peer of an older build sends the indented form. Parse trims each text
// run, so it reads as the very tree the compact form does, and re-encodes
// to the same bytes.
func TestIndentedEnvelopeParsesAsCompact(t *testing.T) {
	trees := corpus()
	trees["mixed"] = NewText("note", "  lead and trail  ").SetAttr("k", " v ").
		Append(NewText("kid", "x"), NewElem("empty"), NewElem("deep").Append(NewText("leaf", "y")))
	for name, n := range trees {
		var indented bytes.Buffer
		referenceEncode(n, &indented, true, 0)
		compact := n.String()
		if indented.Len() <= len(compact) || !strings.Contains(indented.String(), "\n") {
			t.Fatalf("%s: the indented form is not the longer, multi-line one", name)
		}
		old, err := ParseString(indented.String())
		if err != nil {
			t.Fatalf("%s: indented form: %v", name, err)
		}
		cur := mustParseString(compact)
		if !Equal(old, cur) {
			t.Errorf("%s: the indented form parses to another tree:\n%s\nvs\n%s", name, old, cur)
		}
		if old.String() != cur.String() {
			t.Errorf("%s: the indented form re-encodes to other bytes", name)
		}
	}
}

func TestEncodeOutputStaysOnFastPath(t *testing.T) {
	trees := corpus()
	// Everything Encode escapes comes back as a reference the tokenizer
	// decodes itself; only raw non-ASCII text takes the fail-over.
	trees["escapes"] = NewText("note", "a <b> & \"c\" 'd'\ttab\nnl\rcr ]]> \x7f").
		SetAttr("k", "v<&>\"'\t\n\r\\ \x7f")
	for name, n := range trees {
		doc := n.String()
		if !onFastPath(doc) {
			t.Errorf("%s: Encode output fell off the tokenizer's fast path", name)
		}
		back, err := ParseString(doc)
		if err != nil || !Equal(n, back) {
			t.Errorf("%s: round trip changed the tree (err %v)", name, err)
		}
	}
}

// Constructs outside the tokenizer's subset must reach encoding/xml and
// come back exactly as the reference loop parses them.
func TestParseFailsOverOutsideSubset(t *testing.T) {
	for _, doc := range []string{
		`<!DOCTYPE a><a>x</a>`,
		`<a><![CDATA[x <y> ]]></a>`,
		`<p:a xmlns:p="u"><p:b p:k="v"/></p:a>`,
		`<a xmlns="u"><b/></a>`,
		"<a>x\r\ny</a>",
		"<a k=\"v\r\">x</a>",
		`<a>José</a>`,
		"<a>\u00a0x\u00a0</a>",
		`<?xml version="1.0" standalone="yes"?><a/>`,
		"\ufeff<a/>",
		`text<a/>`,
		// Text split so often that keeping it contiguous would copy it a
		// thousand times over: the arena may not outgrow the body.
		"<a>" + strings.Repeat("x<b>y</b>", 1000) + "</a>",
	} {
		if onFastPath(doc) {
			t.Errorf("%q: tokenizer took a document outside its subset", doc)
		}
		want, werr := referenceParse(strings.NewReader(doc))
		got, gerr := ParseString(doc)
		if werr != nil || gerr != nil || !Equal(want, got) {
			t.Errorf("%q: fail-over differs from the reference (%v, %v):\n%s\nvs\n%s", doc, gerr, werr, got, want)
		}
	}
}

// A prefixed name whose local part is no name on its own is refused, as
// the reference refuses it: the writer emits only the local part, and no
// parser reads <0/> back. A local part that is a name still parses, and
// every accepted tree encodes to a document that parses back to it.
func TestParseRefusesNamesTheWriterCannotEmit(t *testing.T) {
	for _, doc := range []string{`<A:0/>`, `<a B:1="x"/>`, `<p:a xmlns:p="u"><p:-b/></p:a>`, `<a><b p:.k="v"/></a>`} {
		if _, err := referenceParse(strings.NewReader(doc)); err == nil {
			t.Errorf("%q: reference accepts this; fix the table", doc)
		}
		if n, err := ParseString(doc); err == nil {
			t.Errorf("%q: Parse accepted a name the writer cannot emit:\n%s", doc, n)
		}
	}
	for _, doc := range []string{`<A:b0/>`, `<a B:k1="x"/>`, `<p:a xmlns:p="u"><p:é k="v"/></p:a>`, `<a:_b/>`, `<é/>`} {
		n, err := ParseString(doc)
		if err != nil {
			t.Errorf("%q: %v", doc, err)
			continue
		}
		back, err := ParseString(n.String())
		if err != nil || !Equal(n, back) {
			t.Errorf("%q: encoded as %q, which parses back as %v (%v)", doc, n.String(), back, err)
		}
	}
}

// The subset itself, case by case against the reference.
func TestParseSubsetMatchesReference(t *testing.T) {
	for _, doc := range []string{
		`<a/>`,
		`<a></a>`,
		` <a> x <b/> y </a> `,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n<a/>",
		`<?pi anything at all ?><a><?x?></a><!-- tail -->`,
		`<a><!-- c --> x <!-- - d -->y</a>`,
		`<a k = 'v"w' j="x'y"l="z"/>`,
		`<a k="1" k="2"/>`,
		`<a k="&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x0043;">&#x20;t&#xA;</a>`,
		`<a>&#xA0;x&#x2028;</a>`,
		`<a>x &#xD800; y</a>`,
		`<a>]]&gt; ]] > ]>]</a>`,
		`<a k="]]>"/>`,
		`<a-b.c_d><e1/></a-b.c_d >`,
		"<a\n\tk=\"v\"\n/>",
		"<a>\x7f</a>",
		// A second run of an element's text: right behind the first in the
		// arena (extended in place), or behind a child's text or attribute
		// (moved to the end first).
		`<a>x<b/>y<!-- c -->z</a>`,
		`<a>x<b k="v">y</b>z<c>w</c>&amp;t</a>`,
		`<a> x <b> y <c> z </c> y2 </b> x2 <d k="&lt;"/> x3 </a>`,
		`<a>&#x20;x&#x20;<b/>&#xA0;&amp;&#x9;</a>`,
		`<a k="&amp;" j="x&#65;" i="&apos;"><b k="&#x42;&#x43;"/>t</a>`,
	} {
		if !onFastPath(doc) {
			t.Errorf("%q: expected the tokenizer to take this", doc)
		}
		want, werr := referenceParse(strings.NewReader(doc))
		got, gerr := ParseString(doc)
		if werr != nil || gerr != nil || !Equal(want, got) {
			t.Errorf("%q: differs from the reference (%v, %v):\n%s\nvs\n%s", doc, gerr, werr, got, want)
		}
	}
	for _, doc := range []string{
		``, ` `, `<a>`, `<a></b>`, `<a/><b/>`, `</a>`, `<a`, `<a k>`, `<a k=v/>`, `<a k="<"/>`,
		`<a>]]></a>`, `<a>&bogus;</a>`, `<a>&#0;</a>`, `<a>&#x110000;</a>`, `<a>&#;</a>`, `<a>&lt</a>`,
		`<!-- a -- b --><a/>`, `<!-- a`, `<?x`, `<1a/>`, `<a/ >`, `<a><!-></a>`, "<a>\x01</a>",
		`<?xml version="2.0"?><a/>`, `<?xml version="1.0" encoding="latin1"?><a/>`, `<a:b:c/>`,
	} {
		if _, err := referenceParse(strings.NewReader(doc)); err == nil {
			t.Fatalf("%q: reference accepts this; fix the table", doc)
		}
		if n, err := ParseString(doc); err == nil {
			t.Errorf("%q: Parse accepted what the reference rejects:\n%s", doc, n)
		}
	}
}

// A tree must own its memory: the pooled body buffer, text arena and span
// list it was parsed from are reused by the very next Parse, including one
// that fails over after it has written text into them.
func TestParsedTreeSurvivesBufferReuse(t *testing.T) {
	doc := answerNode(50).String()
	first := mustParseString(doc)
	want := referenceClone(first)
	for i := 0; i < 4; i++ {
		mustParseString("<x k='&#88;&#88;&#88;'>&#89;&#89;&#89;</x>")
		mustParseString(psiNode(40).String())
		mustParseString(strings.Repeat("<r k='ZZZZZZZZ'>ZZZZZZZZ", 60) + "<![CDATA[z]]>" + strings.Repeat("</r>", 60))
		if _, err := ParseString(strings.Repeat("<r k='QQQQ'>QQQQ", 80)); err == nil {
			t.Fatal("unclosed document accepted")
		}
	}
	if !Equal(first, want) {
		t.Fatal("a later Parse overwrote an earlier tree")
	}
}

// ParseBytes reads its input where it lies and keeps none of it: once it
// returns, the caller reuses the buffer (a pooled answer body), on the
// tokenizer's path and on the fail-over's alike, and the pooled parser
// still holds a buffer of its own for the next Parse.
func TestParseBytesKeepsNothingOfItsInput(t *testing.T) {
	for _, doc := range []string{answerNode(50).String(), psiNode(40).String(), `<a k="v"><![CDATA[x <y>]]><b>t</b></a>`} {
		b := []byte(doc)
		got, err := ParseBytes(b)
		if err != nil {
			t.Fatalf("%.40q: %v", doc, err)
		}
		want := referenceClone(got)
		for i := range b {
			b[i] = 'Z'
		}
		mustParseString(strings.Repeat("<r k='QQQQ'>QQQQ", 60) + strings.Repeat("</r>", 60))
		if !Equal(got, want) || !Equal(got, mustParseString(doc)) {
			t.Errorf("%.40q: reusing the parsed bytes changed the tree", doc)
		}
	}
	if _, err := ParseBytes([]byte("<a><b></a>")); err == nil {
		t.Error("ParseBytes accepted a malformed document")
	}
}

// referenceClone deep-copies a tree into strings of its own, so that the
// copy cannot share a parse arena with the original.
func referenceClone(n *Node) *Node {
	c := NewText(strings.Clone(n.Name), strings.Clone(n.Text))
	for k, v := range n.Attrs {
		c.SetAttr(strings.Clone(k), strings.Clone(v))
	}
	for _, ch := range n.Children {
		c.Append(referenceClone(ch))
	}
	return c
}

// A parsed tree's text is one string: that is the claim the allocation
// pins rest on and the reason long-lived holders clone (DESIGN.md §15).
func TestParsedTextIsOneArena(t *testing.T) {
	root := mustParseString(`<a k="v&amp;w">x<b j='u'>y</b>z<c/>&lt;</a>`)
	var lo, hi uintptr
	root.Walk(func(n *Node) bool {
		texts := []string{n.Text}
		for _, v := range n.Attrs {
			texts = append(texts, v)
		}
		for _, s := range texts {
			if s == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			if lo == 0 || p < lo {
				lo = p
			}
			hi = max(hi, p+uintptr(len(s)))
		}
		return true
	})
	// v&w u xz< y, in whatever order the arena holds them, and the bytes
	// the relocation of <a>'s text left behind.
	if span := hi - lo; span < 8 || span > 16 {
		t.Fatalf("text of the tree spans %d bytes, want one arena of 8..16", span)
	}
	if root.Text != "xz<" || root.Children[0].Text != "y" || root.Attrs["k"] != "v&w" {
		t.Fatalf("tree text wrong: %s", root)
	}
}

func TestParseReadError(t *testing.T) {
	boom := fmt.Errorf("boom")
	_, err := Parse(io.MultiReader(strings.NewReader("<a>"), errReader{boom}))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("read error lost: %v", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func TestSlabChildrenDoNotOverlap(t *testing.T) {
	s := NewSlab(5, 4)
	root := s.Elem("r", 2)
	a, b := s.Elem("a", 2), s.Elem("b", 0)
	root.Append(a, b)
	a.Append(s.Elem("a1", 0), s.Elem("a2", 0))
	// Past its reserved capacity a node must grow its own array, not
	// spill into its neighbour's.
	root.Append(NewElem("c"))
	a.Append(NewElem("a3"))
	// And past its reserved sizes the slab must keep handing out nodes.
	for i := 0; i < 600; i++ {
		b.Append(s.Elem("n", 1).Append(s.Elem("leaf", 0)))
	}
	if got := len(root.Children); got != 3 || root.Children[0] != a || root.Children[1] != b {
		t.Fatalf("root children corrupted: %d", got)
	}
	if len(a.Children) != 3 || a.Children[0].Name != "a1" || a.Children[1].Name != "a2" || a.Children[2].Name != "a3" {
		t.Fatalf("a's children corrupted: %v", a.Children)
	}
	for i, n := range b.Children {
		if n.Name != "n" || len(n.Children) != 1 || n.Children[0].Name != "leaf" || n.Children[0].Parent != n {
			t.Fatalf("b child %d corrupted", i)
		}
	}
}

func TestNilAttrsUntilSetAttr(t *testing.T) {
	n := NewElem("x")
	if n.Attrs != nil {
		t.Fatal("NewElem allocated an Attrs map")
	}
	if _, ok := n.Attr("k"); ok || len(n.Attrs) != 0 {
		t.Fatal("reads of nil Attrs must behave as empty")
	}
	delete(n.Attrs, "k")
	if c := n.Clone(); c.Attrs != nil {
		t.Fatal("Clone allocated an Attrs map for a node without attributes")
	}
	if mustParseString(`<a><b/></a>`).Children[0].Attrs != nil {
		t.Fatal("Parse allocated an Attrs map for a node without attributes")
	}
	if v, _ := n.SetAttr("k", "v").Attr("k"); v != "v" {
		t.Fatal("SetAttr on nil Attrs")
	}
}

// The allocation pins behind the cold_fanout claim: a 273-row answer is
// what one source ships per op, and a 500-element column what a PSI hop
// does. Neither count may depend on the number of rows or elements: the
// text is one string and the nodes a few slab chunks.
func TestCodecAllocations(t *testing.T) {
	const rows = 273
	n := answerNode(rows)
	wire := []byte(n.String())
	var buf bytes.Buffer
	buf.Grow(len(wire))
	if got := testing.AllocsPerRun(50, func() {
		buf.Reset()
		_ = n.Encode(&buf)
	}); got != 0 && !raceEnabled {
		t.Errorf("Encode into a warm pool: %v allocs, want 0", got)
	}
	for _, tc := range []struct {
		name string
		wire []byte
		max  float64
	}{
		{"answer", wire, 40},
		{"psi-elems", []byte(psiNode(500).String()), 10},
	} {
		rd := bytes.NewReader(tc.wire)
		if got := testing.AllocsPerRun(50, func() {
			rd.Reset(tc.wire)
			if _, err := Parse(rd); err != nil {
				t.Fatal(err)
			}
		}); got > tc.max && !raceEnabled {
			t.Errorf("Parse(%s): %v allocs, want <= %v", tc.name, got, tc.max)
		}
	}
}

// A text-heavy document gets a node chunk sized by its tags, not by its
// bytes: a 500-element PSI envelope is one node over ~21 kB of text, and
// parsing it allocates the text and little more. Measured 1.06x its body;
// a chunk sized by bytes alone (256 nodes for the one) read 1.93x.
func TestParseTextHeavyDocumentBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the read buffer's pool drops Puts under the race detector")
	}
	wire := []byte(psiNode(500).String())
	rd := bytes.NewReader(wire)
	parse := func() {
		rd.Reset(wire)
		if _, err := Parse(rd); err != nil {
			t.Fatal(err)
		}
	}
	parse() // warm the pools
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	perParse := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.5 * float64(len(wire)); perParse > limit {
		t.Errorf("Parse of a %d-byte envelope allocates %.0f bytes, want <= %.0f", len(wire), perParse, limit)
	}
}

func FuzzParseDifferential(f *testing.F) {
	for _, n := range fuzzSeeds() {
		f.Add(n.String())
	}
	f.Add(`<?xml version="1.0"?><a k='v' j="&#x41;&amp;"><!-- c --> x <b/>y&lt;<?pi d?></a>`)
	f.Add(`<p:a xmlns:p="u"><![CDATA[x]]>]]&gt;</p:a>`)
	// The arena's branches: an element's text split by a child or a
	// comment (extended in place, or moved behind what came between), an
	// entity at the edge of a run, entities in attribute values, and a
	// document that fails over after text was already recorded.
	f.Add(`<a>x<b k="v">y</b>z<!-- c -->w<c>u</c>&amp;t</a>`)
	f.Add(`<a>&#x20;x&#xA0;<b/>&#x9;&lt;y&gt;&#xA;</a>`)
	f.Add(`<a k="&amp;&lt;" j='x&#65;&quot;'><b k="&#x42;"/>t</a>`)
	f.Add(`<a k="v">x<b>y</b>z<![CDATA[w]]>&bogus;</a>`)
	f.Add(`<a k="v">x<b>y</b>z</c>`)
	// Prefixed names whose local part is no name of its own.
	f.Add(`<A:0/>`)
	f.Add(`<a B:1="x"/>`)
	f.Fuzz(func(t *testing.T, doc string) {
		want, werr := referenceParse(strings.NewReader(doc))
		got, gerr := ParseString(doc)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("acceptance differs: Parse err %v, reference err %v", gerr, werr)
		}
		if werr == nil && !Equal(want, got) {
			t.Fatalf("trees differ:\n%s\nvs reference\n%s", got, want)
		}
		// Parse over a reader must agree with ParseString.
		viaReader, rerr := Parse(shortReader{strings.NewReader(doc)})
		if (rerr == nil) != (gerr == nil) || (rerr == nil && !Equal(viaReader, got)) {
			t.Fatalf("Parse(reader) disagrees with ParseString: %v vs %v", rerr, gerr)
		}
	})
}

// shortReader returns at most 7 bytes per Read, so the read loop's
// growth path runs under the fuzzer.
type shortReader struct{ r io.Reader }

func (o shortReader) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return o.r.Read(p)
}

func FuzzEncodeRoundTrip(f *testing.F) {
	for _, n := range fuzzSeeds() {
		f.Add(n.String())
	}
	f.Add(`<a k="a\b&#x7F;&#xA0;&#x2028;"> &#x20;x </a>`)
	f.Add(`<A:0/>`)
	f.Add(`<a B:1="x"/>`)
	f.Fuzz(func(t *testing.T, doc string) {
		tree, err := ParseString(doc)
		if err != nil {
			return
		}
		canon := tree.String()
		back, err := ParseString(canon)
		if err != nil {
			t.Fatalf("re-parse of encoded tree: %v\n%s", err, canon)
		}
		if !Equal(tree, back) {
			t.Fatalf("encode/parse changed the tree:\n%s\nvs\n%s", tree, back)
		}
		if again := back.String(); again != canon {
			t.Fatalf("canonical form is not a fixed point:\n%q\nvs\n%q", canon, again)
		}
	})
}

var sinkNode *Node

func BenchmarkEncodeAnswer(b *testing.B) {
	n := answerNode(273)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := n.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func benchmarkParse(b *testing.B, n *Node) {
	wire := []byte(n.String())
	rd := bytes.NewReader(wire)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(wire)
		var err error
		if sinkNode, err = Parse(rd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseAnswer(b *testing.B)   { benchmarkParse(b, answerNode(273)) }
func BenchmarkParsePSIElems(b *testing.B) { benchmarkParse(b, psiNode(500)) }
