package psi

import (
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"privateiye/internal/xmltree"
)

// Wire encoding: protocol messages travel between sources through the
// mediator as XML, like everything else in PRIVATE-IYE.
//
//	<psi-elems n="3" suite="x25519">n0Ia…</psi-elems>
//
// The text is the whole column: the n elements' canonical fixed-width
// encodings, concatenated, in unpadded standard base64 — exactly
// EncodedLen(n*ElementSize()) characters of the alphabet, the last one's
// unused bits zero. The decoder rejects anything else (another length,
// padding, line breaks, stray characters, nonzero trailing bits, <e>
// children, non-members), so a column has exactly one wire form and
// transcript comparison is byte comparison.
//
// Every envelope describes itself, and one that does not is refused: n is
// the count the sender wrote, or a truncated column would under-count the
// overlap, and suite names the group, and with it the width, a decoder
// holds the elements to.

// wireEncoding is the packed text's codec. Strict refuses nonzero
// trailing bits, the one second spelling the alphabet check leaves.
var wireEncoding = base64.RawStdEncoding.Strict()

// wireChunk is how many characters go through a stack buffer at a time:
// a multiple of 4, so every chunk but the last is whole base64 quanta.
const wireChunk = 1024

// MarshalElems encodes blinded group elements of one suite: one node and
// one string, which holds the packed text and then the count's digits,
// so what an envelope costs does not grow with its column.
func MarshalElems(s Suite, elems []Element) *xmltree.Node {
	raw := make([]byte, 0, len(elems)*s.ElementSize())
	for _, e := range elems {
		raw = s.AppendElement(raw, e)
	}
	size := wireEncoding.EncodedLen(len(raw))
	var b strings.Builder
	b.Grow(size + 20)
	var chunk [wireChunk]byte
	for len(raw) > 0 {
		k := min(wireChunk/4*3, len(raw))
		wireEncoding.Encode(chunk[:], raw[:k])
		b.Write(chunk[:wireEncoding.EncodedLen(k)])
		raw = raw[k:]
	}
	b.Write(strconv.AppendInt(chunk[:0], int64(len(elems)), 10))
	all := b.String()
	return xmltree.NewText("psi-elems", all[:size]).SetAttr("n", all[size:]).SetAttr("suite", s.Name())
}

// WireSuiteName reports the suite attribute of a psi-elems envelope, or
// "" when it names none.
func WireSuiteName(n *xmltree.Node) string {
	name, _ := n.Attr("suite")
	return name
}

// wireCount returns the element count of a psi-elems envelope of
// size-byte elements, refusing one that carries children (the <e> form
// of builds before the packed text), declares no count, or whose text is
// not that many elements long.
func wireCount(n *xmltree.Node, size int) (int, error) {
	if n.Name != "psi-elems" {
		return 0, fmt.Errorf("psi: expected <psi-elems>, got <%s>", n.Name)
	}
	if len(n.Children) > 0 {
		return 0, fmt.Errorf("psi: envelope carries %d child elements, want one packed text", len(n.Children))
	}
	v, ok := n.Attr("n")
	count, err := strconv.Atoi(v)
	// count is bounded by the text before it is multiplied.
	if !ok || err != nil || count < 0 || count > len(n.Text) || wireEncoding.EncodedLen(count*size) != len(n.Text) {
		return 0, fmt.Errorf("psi: envelope declares n=%q but carries %d characters of %d-byte elements", v, len(n.Text), size)
	}
	return count, nil
}

// UnmarshalElems decodes MarshalElems output against the expected suite,
// enforcing canonical form: the envelope's suite attribute must name s,
// its text must be exactly the declared count of elements in canonical
// base64, and every element must decode to a valid group member. Elements
// are checked in parallel (a membership check each); the error reported
// is the one at the lowest index, whichever check found it.
func UnmarshalElems(n *xmltree.Node, s Suite) ([]Element, error) {
	if ws := WireSuiteName(n); ws != s.Name() {
		return nil, fmt.Errorf("psi: envelope suite %q does not match expected %q", ws, s.Name())
	}
	size := s.ElementSize()
	count, err := wireCount(n, size)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, count*size)
	bad, badErr := decodePacked(raw, n.Text, size)
	out := make([]Element, count)
	err = forEachChecked(count, 0, func(i int) error {
		if i == bad {
			return badErr
		}
		e, err := s.DecodeElement(raw[i*size : (i+1)*size])
		out[i] = e
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CheckedElems returns an envelope's elements, each its canonical bytes
// as a substring of one string, after the checks a relay holding no group
// can make before it compares them: the envelope names a suite this build
// runs, and its text is exactly the declared count of that suite's
// elements in canonical base64. Membership is UnmarshalElems' check.
func CheckedElems(n *xmltree.Node) ([]string, error) {
	s, err := SuiteByName(WireSuiteName(n))
	if err != nil {
		return nil, err
	}
	size := s.ElementSize()
	count, err := wireCount(n, size)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, count*size)
	if bad, err := decodePacked(raw, n.Text, size); err != nil {
		return nil, fmt.Errorf("psi: element %d: %w", bad, err)
	}
	// raw is never written again and no one else holds it: the string
	// takes it over rather than copy it.
	col := unsafe.String(unsafe.SliceData(raw), len(raw))
	out := make([]string, count)
	for i := range out {
		out[i] = col[i*size : (i+1)*size]
	}
	return out, nil
}

// decodePacked fills dst from text, which wireCount has held to exactly
// EncodedLen(len(dst)) characters. It returns -1 and nil when the text is
// canonical; else the lowest element the text misspells (the one a bad
// character's first bit belongs to, or the last for nonzero trailing
// bits) and why. The alphabet is checked before decoding, because the
// decoder skips '\n' and '\r'. A bad character is decoded as 'A', so
// every element below it is still filled in for its membership check.
func decodePacked(dst []byte, text string, size int) (bad int, err error) {
	bad = -1
	var chunk [wireChunk]byte
	for off := 0; off < len(text); off += wireChunk {
		c := chunk[:copy(chunk[:], text[off:])]
		for i, ch := range c {
			if !wireAlphabet[ch] {
				if bad < 0 {
					bad = (off + i) * 6 / 8 / size
					err = fmt.Errorf("encoding has non-canonical character %q at offset %d", ch, off+i)
				}
				c[i] = 'A'
			}
		}
		if _, derr := wireEncoding.Decode(dst[off/4*3:], c); derr != nil && bad < 0 {
			bad, err = len(dst)/size-1, errors.New("encoding has nonzero trailing bits")
		}
	}
	return bad, err
}

// wireAlphabet marks the 64 characters of the packed text. A table,
// because comparing random characters against range bounds mispredicts.
var wireAlphabet = func() (t [256]bool) {
	for _, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/" {
		t[c] = true
	}
	return t
}()
