package psi

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"privateiye/internal/xmltree"
)

// Wire encoding: protocol messages travel between sources through the
// mediator as XML, like everything else in PRIVATE-IYE.
//
//	<psi-elems n="3" suite="x25519">
//	  <e>9fab34…</e>
//	  …
//	</psi-elems>
//
// Each <e> is the suite's canonical fixed-width encoding in lowercase
// hex — exactly 2*ElementSize() characters, one encoding per element.
// The decoder rejects anything else (wrong width, uppercase, stray
// characters, non-members), so an element has exactly one wire form and
// transcript comparison is byte comparison.
//
// Every envelope describes itself, and one that does not is refused. n is
// the count the sender wrote; an envelope carrying another number of
// elements is refused, or a truncated column would under-count the
// overlap. suite names the group the elements live in; a decoder holds
// the envelope to it.

// MarshalElems encodes blinded group elements of one suite: one slab, and
// one hex string the element texts are slices of.
func MarshalElems(s Suite, elems []Element) *xmltree.Node {
	n, width := len(elems), 2*s.ElementSize()
	slab := xmltree.NewSlab(n+1, n)
	root := slab.Elem("psi-elems", n).
		SetAttr("n", strconv.Itoa(n)).
		SetAttr("suite", s.Name())
	raw := make([]byte, 0, n*s.ElementSize())
	for _, e := range elems {
		raw = s.AppendElement(raw, e)
	}
	text := hex.EncodeToString(raw)
	for i := 0; i < n; i++ {
		e := slab.Elem("e", 0)
		e.Text = text[i*width : (i+1)*width]
		root.Append(e)
	}
	return root
}

// WireSuiteName reports the suite attribute of a psi-elems envelope, or
// "" when it names none.
func WireSuiteName(n *xmltree.Node) string {
	name, _ := n.Attr("suite")
	return name
}

// elemNodes returns the <e> children of a psi-elems envelope, refusing one
// that declares no count or a count that is not the count that arrived.
func elemNodes(n *xmltree.Node) ([]*xmltree.Node, error) {
	if n.Name != "psi-elems" {
		return nil, fmt.Errorf("psi: expected <psi-elems>, got <%s>", n.Name)
	}
	kids := n.ChildrenNamed("e")
	v, ok := n.Attr("n")
	if want, err := strconv.Atoi(v); !ok || err != nil || want != len(kids) {
		return nil, fmt.Errorf("psi: envelope declares n=%q but carries %d elements", v, len(kids))
	}
	return kids, nil
}

// UnmarshalElems decodes MarshalElems output against the expected suite,
// enforcing canonical form: the envelope's suite attribute must name s,
// its declared count must be the number of elements it carries, and
// every element must be exactly the suite's fixed width in lowercase hex
// and decode to a valid group member. Non-canonical encodings — overlong,
// leading-zero-padded beyond the fixed width, uppercase hex — are
// rejected, so one element has one wire form. Elements decode in parallel (a membership check each);
// the error reported is the one at the lowest index.
func UnmarshalElems(n *xmltree.Node, s Suite) ([]Element, error) {
	kids, err := elemNodes(n)
	if err != nil {
		return nil, err
	}
	if ws := WireSuiteName(n); ws != s.Name() {
		return nil, fmt.Errorf("psi: envelope suite %q does not match expected %q", ws, s.Name())
	}
	size := s.ElementSize()
	raw := make([]byte, len(kids)*size)
	out := make([]Element, len(kids))
	err = forEachChecked(len(kids), 0, func(i int) error {
		b := raw[i*size : (i+1)*size]
		if err := decodeCanonicalHex(b, kids[i].Text); err != nil {
			return err
		}
		e, err := s.DecodeElement(b)
		out[i] = e
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CheckedElems returns an envelope's <e> nodes after the checks a relay
// holding no group can make before it compares their texts: the declared
// count arrived, and every element is lowercase hex of exactly the width
// of the suite the envelope names. Membership is UnmarshalElems' check.
func CheckedElems(n *xmltree.Node) ([]*xmltree.Node, error) {
	kids, err := elemNodes(n)
	if err != nil {
		return nil, err
	}
	size, err := wireElementSize(WireSuiteName(n))
	if err != nil {
		return nil, err
	}
	b := make([]byte, size)
	for i, k := range kids {
		if err := decodeCanonicalHex(b, k.Text); err != nil {
			return nil, fmt.Errorf("psi: element %d: %w", i, err)
		}
	}
	return kids, nil
}

// wireElementSize is ElementSize by wire name alone; an envelope naming
// no suite, or one this build does not run, has no width.
func wireElementSize(name string) (int, error) {
	switch name {
	case SuiteNameX25519:
		return x25519ElemSize, nil
	case SuiteNameModP2048:
		return modp2048.size, nil
	}
	return 0, fmt.Errorf("psi: unknown suite %q", name)
}

// decodeCanonicalHex fills dst from exactly len(dst)*2 lowercase hex
// characters. Anything else — wrong length, uppercase, non-hex bytes —
// is an error: the wire form is canonical or it is rejected.
func decodeCanonicalHex(dst []byte, text string) error {
	if len(text) != 2*len(dst) {
		return fmt.Errorf("encoding is %d hex chars, want %d", len(text), 2*len(dst))
	}
	for i := 0; i < len(text); i++ {
		if !lowerHex[text[i]] {
			return fmt.Errorf("encoding has non-canonical character %q at offset %d", text[i], i)
		}
	}
	_, err := hex.Decode(dst, []byte(text))
	return err
}

// lowerHex marks the canonical digits. A table, because comparing random
// digits against '9' and 'a' mispredicts on nearly every other character.
var lowerHex = func() (t [256]bool) {
	for _, c := range "0123456789abcdef" {
		t[c] = true
	}
	return t
}()
