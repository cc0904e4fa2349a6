package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// Parse reads one XML document from r into a Node tree. Character data is
// concatenated (trimmed) onto the containing element; processing
// instructions and comments are skipped.
//
// The body is read in full and tokenized in one pass for the grammar the
// tier itself emits; a document using anything else (DOCTYPE, CDATA,
// prefixed names, \r, non-ASCII bytes, malformed input) is re-parsed from
// the same bytes by encoding/xml, which also words every error. The
// accepted language and the resulting trees are those of the encoding/xml
// loop alone. The returned tree shares no memory with r or with any
// buffer of this package, but its text is one unit: every Text and
// attribute value is a substring of one string per document, so whoever
// keeps a few cells past the request clones them (DESIGN.md §15).
func Parse(r io.Reader) (*Node, error) {
	p := parserPool.Get().(*parser)
	defer p.release()
	if err := p.read(r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return p.parse()
}

// ParseBytes is Parse over b, read where it lies: no copy of it is made,
// and it is not read after ParseBytes returns. The tree shares no memory
// with b, so the caller may reuse b at once (a pooled answer body,
// DESIGN.md §15).
func ParseBytes(b []byte) (*Node, error) {
	p := parserPool.Get().(*parser)
	own := p.body
	p.body = b
	n, err := p.parse()
	p.body = own
	p.release()
	return n, err
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) {
	p := parserPool.Get().(*parser)
	defer p.release()
	p.body = append(p.body[:0], s...)
	return p.parse()
}

func (p *parser) parse() (*Node, error) {
	if root, ok := p.tokenize(); ok {
		return root, nil
	}
	return parseStd(bytes.NewReader(p.body))
}

// parseStd is the encoding/xml loop: the definition of what Parse accepts
// and returns, and the fail-over for documents outside the tokenizer's
// subset.
func parseStd(r io.Reader) (*Node, error) {
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
			if !xmlName(t.Name.Local) {
				return nil, fmt.Errorf("xmltree: parse: element name %q is not an XML name", t.Name.Local)
			}
			n := NewElem(t.Name.Local)
			for _, a := range t.Attr {
				if !xmlName(a.Name.Local) {
					return nil, fmt.Errorf("xmltree: parse: attribute name %q is not an XML name", a.Name.Local)
				}
				n.SetAttr(a.Name.Local, a.Value)
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

// xmlName reports whether a local name is an XML name on its own: one the
// writer can emit as it is and encoding/xml reads back as the same name.
// encoding/xml checks only a prefixed name as a whole, so the local part
// of <A:0/> is "0", which no document can carry unprefixed. An unprefixed
// ASCII name is checked by the tokenizer's scanner; any other is read
// back through encoding/xml.
func xmlName(name string) bool {
	if scanName([]byte(name), 0) == len(name) {
		return true
	}
	tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
	se, ok := tok.(xml.StartElement)
	return err == nil && ok && se.Name.Space == "" && se.Name.Local == name
}

// parser is the pooled per-Parse state. Only scratch lives here; the
// nodes, child slices and strings of the result are freshly allocated.
type parser struct {
	body    []byte
	arena   []byte            // every trimmed, entity-decoded text run and attribute value so far
	spans   []textSpan        // who owns which part of arena
	open    []openElem        // the open-element stack
	pending []*Node           // closed children waiting for their parent to close
	names   map[string]string // element and attribute names seen in this parse
	slab    Slab
}

// textSpan is arena[off:end], to become n's attribute key, or n.Text when
// key is empty, once the arena is a string.
type textSpan struct {
	n        *Node
	key      string
	off, end int
}

// openElem is an open element, where its children start in pending, and
// the span holding its text so far (-1 for none yet).
type openElem struct {
	n    *Node
	kids int
	text int
}

var parserPool = sync.Pool{New: func() any { return &parser{names: map[string]string{}} }}

// maxPooledNames bounds the name table kept across parses; a document
// with more distinct names than this gets a table of its own.
const maxPooledNames = 64

func (p *parser) release() {
	// Drop every reference into the tree just built: a pooled parser
	// must not keep a caller's result (or a failed parse's debris) alive.
	clear(p.open[:cap(p.open)])
	clear(p.pending[:cap(p.pending)])
	clear(p.spans[:cap(p.spans)])
	p.open, p.pending, p.spans = p.open[:0], p.pending[:0], p.spans[:0]
	p.slab = Slab{}
	if len(p.names) > maxPooledNames {
		p.names = map[string]string{}
	} else {
		clear(p.names)
	}
	if cap(p.body) > maxPooledBuffer {
		p.body = nil
	}
	if cap(p.arena) > maxPooledBuffer {
		p.arena = nil
	}
	if cap(p.spans) > maxPooledBuffer/64 {
		p.spans = nil
	}
	parserPool.Put(p)
}

// read fills p.body with everything r has.
func (p *parser) read(r io.Reader) error {
	b := p.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			p.body = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// Byte classes of the tokenizer's subset. Anything not marked is a reason
// to fail over, which is how \r, other control bytes and everything
// non-ASCII leave the fast path.
const (
	clsName    = 1 << iota // may continue a name: letters, digits, '_', '-', '.'
	clsNameOne             // may start a name: letters and '_'
	clsText                // may appear raw in character data and attribute values
)

var class = func() (t [256]uint8) {
	for c := 0x20; c <= 0x7F; c++ {
		t[c] = clsText
	}
	t['\t'], t['\n'] = clsText, clsText
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= clsName | clsNameOne
		t[c-'a'+'A'] |= clsName | clsNameOne
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= clsName
	}
	t['_'] |= clsName | clsNameOne
	t['-'] |= clsName
	t['.'] |= clsName
	return t
}()

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// scanName scans an unprefixed ASCII name at b[i:] and returns the index
// past it, or -1. encoding/xml would carry the name on through a ':' or a
// non-ASCII byte, so a name ending at either is not one this scanner can
// vouch for.
func scanName(b []byte, i int) int {
	if i >= len(b) || class[b[i]]&clsNameOne == 0 {
		return -1
	}
	for i++; i < len(b) && class[b[i]]&clsName != 0; i++ {
	}
	if i < len(b) && (b[i] == ':' || b[i] >= utf8.RuneSelf) {
		return -1
	}
	return i
}

func (p *parser) intern(name []byte) string {
	if s, ok := p.names[string(name)]; ok {
		return s
	}
	s := string(name)
	p.names[s] = s
	return s
}

// tokenize builds the tree from p.body, or reports false for any input it
// is not certain encoding/xml would accept with the same result. It never
// words an error itself: the fail-over does.
func (p *parser) tokenize() (root *Node, ok bool) {
	b := p.body
	// Nodes average well over 32 bytes of markup on the wire, and no
	// document holds more nodes than '<'s: a text-heavy one (a PSI
	// envelope is one node over kilobytes of text) gets a chunk its size.
	p.slab = Slab{nodeChunk: min(len(b)/32, bytes.Count(b, []byte{'<'})), kidChunk: len(b) / 32}
	p.arena = p.arena[:0]
	for i := 0; i < len(b); {
		if b[i] != '<' {
			end := bytes.IndexByte(b[i:], '<')
			if end < 0 {
				end = len(b)
			} else {
				end += i
			}
			if len(p.open) == 0 {
				// Outside the root only blank space is certain to be ignored.
				if skipSpace(b, i) != end {
					return nil, false
				}
			} else if !p.charData(b[i:end]) {
				return nil, false
			}
			i = end
			continue
		}
		if i+1 >= len(b) {
			return nil, false
		}
		switch b[i+1] {
		case '/':
			if len(p.open) == 0 {
				return nil, false
			}
			top := p.open[len(p.open)-1]
			j := scanName(b, i+2)
			if j < 0 || string(b[i+2:j]) != top.n.Name {
				return nil, false
			}
			j = skipSpace(b, j)
			if j >= len(b) || b[j] != '>' {
				return nil, false
			}
			i = j + 1
			p.open = p.open[:len(p.open)-1]
			if kids := p.pending[top.kids:]; len(kids) > 0 {
				top.n.Children = append(p.slab.kidSlice(len(kids)), kids...)
				p.pending = p.pending[:top.kids]
			}
			root = p.closed(top.n, root)

		case '?':
			j := scanName(b, i+2)
			if j < 0 {
				return nil, false
			}
			end := bytes.Index(b[j:], []byte("?>"))
			if end < 0 {
				return nil, false
			}
			// encoding/xml inspects the XML declaration's version and
			// encoding loosely; only the spellings below are certain.
			if string(b[i+2:j]) == "xml" && !knownXMLDecl(b[j:j+end]) {
				return nil, false
			}
			i = j + end + 2

		case '!':
			// Comments only; DOCTYPE, CDATA and other directives fail over.
			if !bytes.HasPrefix(b[i:], []byte("<!--")) {
				return nil, false
			}
			end := bytes.Index(b[i+4:], []byte("--"))
			if end < 0 || i+4+end+2 >= len(b) || b[i+4+end+2] != '>' {
				return nil, false // unterminated, or "--" inside the comment
			}
			i = i + 4 + end + 3

		default:
			if len(p.open) == 0 && root != nil {
				return nil, false // a second root
			}
			j := scanName(b, i+1)
			if j < 0 {
				return nil, false
			}
			n := p.slab.node()
			n.Name = p.intern(b[i+1 : j])
			if len(p.open) > 0 {
				n.Parent = p.open[len(p.open)-1].n
			}
			empty := false
			for {
				j = skipSpace(b, j)
				if j >= len(b) {
					return nil, false
				}
				if b[j] == '>' {
					j++
					break
				}
				if b[j] == '/' {
					if j+1 >= len(b) || b[j+1] != '>' {
						return nil, false
					}
					empty = true
					j += 2
					break
				}
				k := scanName(b, j)
				if k < 0 || string(b[j:k]) == "xmlns" {
					return nil, false
				}
				key := p.intern(b[j:k])
				j = skipSpace(b, k)
				if j >= len(b) || b[j] != '=' {
					return nil, false
				}
				j = skipSpace(b, j+1)
				if j >= len(b) || (b[j] != '"' && b[j] != '\'') {
					return nil, false
				}
				off := len(p.arena)
				if j, ok = p.attrValue(b, j+1, b[j]); !ok {
					return nil, false
				}
				p.spans = append(p.spans, textSpan{n: n, key: key, off: off, end: len(p.arena)})
			}
			i = j
			if empty {
				root = p.closed(n, root)
			} else {
				p.open = append(p.open, openElem{n: n, kids: len(p.pending), text: -1})
			}
		}
	}
	if root == nil || len(p.open) != 0 {
		return nil, false
	}
	// The one allocation all of the tree's text costs. In document order,
	// so a repeated attribute keeps its last value.
	text := string(p.arena)
	for _, sp := range p.spans {
		if sp.key == "" {
			sp.n.Text = text[sp.off:sp.end]
		} else {
			sp.n.SetAttr(sp.key, text[sp.off:sp.end])
		}
	}
	return root, true
}

// closed files a just-closed element under its still-open parent, or as
// the root.
func (p *parser) closed(n, root *Node) *Node {
	if len(p.open) == 0 {
		return n
	}
	p.pending = append(p.pending, n)
	return root
}

// knownXMLDecl reports whether the body of an <?xml …?> declaration is
// one of the spellings whose meaning needs no interpretation.
func knownXMLDecl(decl []byte) bool {
	switch string(bytes.TrimSpace(decl)) {
	case `version="1.0"`, `version="1.0" encoding="UTF-8"`, `version="1.0" encoding="utf-8"`:
		return true
	}
	return false
}

// charData appends one run of character data (the bytes between two
// markup constructs) to the innermost open element's text in the arena,
// trimmed per run exactly as the encoding/xml loop does. False means fail
// over.
func (p *parser) charData(seg []byte) bool {
	entity := false
	for k, c := range seg {
		switch {
		case c == '&':
			entity = true
		case class[c]&clsText == 0:
			return false
		case c == '>' && k >= 2 && seg[k-1] == ']' && seg[k-2] == ']':
			return false // "]]>" is an error outside CDATA
		}
	}
	mark := len(p.arena)
	if entity {
		var ok bool
		if p.arena, ok = appendDecoded(p.arena, seg); !ok {
			return false
		}
		// A decoded reference can put any Unicode space at the edge.
		p.arena = p.arena[:mark+copy(p.arena[mark:], bytes.TrimSpace(p.arena[mark:]))]
	} else {
		for len(seg) > 0 && isSpace(seg[0]) {
			seg = seg[1:]
		}
		for len(seg) > 0 && isSpace(seg[len(seg)-1]) {
			seg = seg[:len(seg)-1]
		}
		p.arena = append(p.arena, seg...)
	}
	if len(p.arena) == mark {
		return true
	}
	top := &p.open[len(p.open)-1]
	if top.text < 0 {
		top.text = len(p.spans)
		p.spans = append(p.spans, textSpan{n: top.n, off: mark, end: len(p.arena)})
		return true
	}
	// A later run of the same element (text split by a child or a
	// comment) must stay contiguous with the earlier ones: extend the span
	// if nothing was appended in between, else move it to the arena's end.
	// Moving re-appends, so text split over and over would square the
	// arena; one that outgrows the body fails over instead.
	sp := &p.spans[top.text]
	if sp.end != mark {
		run := len(p.arena) - mark
		p.arena = append(p.arena, p.arena[sp.off:sp.end]...)
		sp.off = mark + run
		p.arena = append(p.arena, p.arena[mark:mark+run]...)
	}
	sp.end = len(p.arena)
	return len(p.arena) <= len(p.body)
}

// attrValue appends the quoted attribute value starting at b[i] (just
// past the opening quote) to the arena and returns the index past the
// closing quote.
func (p *parser) attrValue(b []byte, i int, quote byte) (next int, ok bool) {
	entity := false
	for j := i; j < len(b); j++ {
		switch c := b[j]; {
		case c == quote:
			if !entity {
				p.arena = append(p.arena, b[i:j]...)
				return j + 1, true
			}
			p.arena, ok = appendDecoded(p.arena, b[i:j])
			return j + 1, ok
		case c == '&':
			entity = true
		case c == '<' || class[c]&clsText == 0:
			return 0, false
		}
	}
	return 0, false
}

// appendDecoded appends src with its entity references replaced: the
// five named entities, and decimal or hexadecimal character references to
// characters in the XML character range. Any other reference reports
// false.
func appendDecoded(dst, src []byte) ([]byte, bool) {
	for {
		amp := bytes.IndexByte(src, '&')
		if amp < 0 {
			return append(dst, src...), true
		}
		dst = append(dst, src[:amp]...)
		src = src[amp+1:]
		semi := bytes.IndexByte(src, ';')
		// The longest reference accepted here is "#x10FFFF" with a few
		// leading zeros.
		if semi < 1 || semi > 10 {
			return dst, false
		}
		ref := src[:semi]
		src = src[semi+1:]
		if ref[0] != '#' {
			switch string(ref) {
			case "lt":
				dst = append(dst, '<')
			case "gt":
				dst = append(dst, '>')
			case "amp":
				dst = append(dst, '&')
			case "apos":
				dst = append(dst, '\'')
			case "quot":
				dst = append(dst, '"')
			default:
				return dst, false
			}
			continue
		}
		digits, base := ref[1:], uint32(10)
		if len(digits) > 0 && digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		if len(digits) == 0 {
			return dst, false
		}
		var v uint32 // at most 9 decimal or 8 hex digits: cannot overflow
		for _, c := range digits {
			var d byte
			switch {
			case '0' <= c && c <= '9':
				d = c - '0'
			case base == 16 && 'a' <= c && c <= 'f':
				d = c - 'a' + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = c - 'A' + 10
			default:
				return dst, false
			}
			v = v*base + uint32(d)
		}
		if v > utf8.MaxRune {
			return dst, false
		}
		r := rune(v)
		if r >= 0xD800 && r <= 0xDFFF {
			r = utf8.RuneError // what string(rune(r)) makes of a surrogate
		}
		if !inCharRange(r) {
			return dst, false
		}
		dst = utf8.AppendRune(dst, r)
	}
}
