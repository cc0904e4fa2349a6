package psi

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"privateiye/internal/xmltree"
)

// testSuites is the per-suite matrix: every protocol-level test runs
// over both suites.
func testSuites() []Suite {
	return []Suite{ModPSuite(), X25519Suite()}
}

func forEachSuite(t *testing.T, f func(t *testing.T, s Suite)) {
	t.Helper()
	for _, s := range testSuites() {
		t.Run(s.Name(), func(t *testing.T) { f(t, s) })
	}
}

func parties(t *testing.T, s Suite) (*Party, *Party) {
	t.Helper()
	a, err := NewParty(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewParty(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// badElements returns suite elements that Validate/Exponentiate must
// reject: the identity, out-of-range values, and non-members (a
// quadratic non-residue for MODP, a small-order point for x25519).
func badElements(t *testing.T, s Suite) map[string]Element {
	t.Helper()
	switch s.Name() {
	case SuiteNameX25519:
		bit255 := X25519Elem{9}
		bit255[31] = 0x80
		return map[string]Element{
			"zero":      &X25519Elem{},
			"order-4":   &X25519Elem{1},
			"order-8":   &x25519SmallOrder[3],
			"u = p":     &x25519P,
			"bit 255":   &bit255,
			"nil-array": (*X25519Elem)(nil),
		}
	default:
		g := s.(*modpSuite).g
		// 2^q mod p != 1 would make 2 a generator of the full group; for
		// a safe prime, any non-residue works. Find a small non-residue.
		nonRes := big.NewInt(2)
		for big.Jacobi(nonRes, g.P) == 1 {
			nonRes.Add(nonRes, bigOne)
		}
		return map[string]Element{
			"zero":         (*ModPElem)(big.NewInt(0)),
			"identity":     (*ModPElem)(big.NewInt(1)),
			"out-of-range": (*ModPElem)(new(big.Int).Set(g.P)),
			"negative":     (*ModPElem)(big.NewInt(-5)),
			"non-residue":  (*ModPElem)(nonRes),
		}
	}
}

// p256Elem is an element of the P-256 suite that builds before x25519
// ran: a 33-byte SEC1 compressed point. This build has no such suite, so
// every suite it runs must refuse one, in memory and on the wire.
type p256Elem [33]byte

// retiredP256 is the wire name those builds gave the suite.
const retiredP256 = "p256"

func (*p256Elem) psiElement() {}

// p256Point returns a fresh P-256 point in the form an older peer sent.
func p256Point(t *testing.T) *p256Elem {
	t.Helper()
	k, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	raw := k.PublicKey().Bytes() // 0x04 ‖ X ‖ Y
	var e p256Elem
	e[0] = 2 | raw[64]&1
	copy(e[1:], raw[1:33])
	return &e
}

func TestGroupsAreSafePrimes(t *testing.T) {
	g := DefaultGroup()
	if !g.P.ProbablyPrime(32) {
		t.Error("p not prime")
	}
	if !g.Q.ProbablyPrime(32) {
		t.Error("q not prime")
	}
	// p = 2q + 1.
	back := new(big.Int).Add(new(big.Int).Lsh(g.Q, 1), big.NewInt(1))
	if back.Cmp(g.P) != 0 {
		t.Error("p != 2q+1")
	}
}

func TestSuiteRegistry(t *testing.T) {
	for _, name := range []string{SuiteNameX25519, SuiteNameModP2048} {
		s, err := SuiteByName(name)
		if err != nil {
			t.Fatalf("SuiteByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("SuiteByName(%q).Name() = %q", name, s.Name())
		}
	}
	// Builds before x25519 advertised p256; this one cannot run it, nor
	// any MODP width but 2048 bits.
	for _, name := range []string{"modp768", "modp1024", "p256", ""} {
		if _, err := SuiteByName(name); err == nil {
			t.Errorf("unknown suite name %q should fail", name)
		}
	}
	if got := ModPSuite().Name(); got != SuiteNameModP2048 {
		t.Errorf("MODP suite name = %q", got)
	}
	if got, want := X25519Suite().ElementSize(), 32; got != want {
		t.Errorf("x25519 element size = %d, want %d", got, want)
	}
	if got, want := ModPSuite().ElementSize(), 256; got != want {
		t.Errorf("modp2048 element size = %d, want %d", got, want)
	}
	// The MODP suite is built once: resolving it parses no modulus.
	if n := testing.AllocsPerRun(100, func() { SuiteByName(SuiteNameModP2048) }); n != 0 {
		t.Errorf("SuiteByName(%q): %v allocs, want 0", SuiteNameModP2048, n)
	}
}

func TestHashToGroupProperties(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a := s.HashToGroup(nil, "alice@example.org")
		b := s.HashToGroup(nil, "bob@example.org")
		if s.Equal(a, b) {
			t.Error("distinct items hash equal")
		}
		if a2 := s.HashToGroup(nil, "alice@example.org"); !s.Equal(a2, a) {
			t.Error("hash not deterministic")
		}
		// Determinism must hold across scratch reuse too.
		sc := NewScratch()
		for _, item := range []string{"x", "y", "", "日本語", "a very long item name with spaces"} {
			h := s.HashToGroup(sc, item)
			if err := s.Validate(h); err != nil {
				t.Errorf("hash of %q invalid: %v", item, err)
			}
			if !s.Equal(h, s.HashToGroup(nil, item)) {
				t.Errorf("scratch reuse changed hash of %q", item)
			}
		}
	})
}

// The MODP hash must land in the prime-order QR subgroup specifically.
func TestHashToGroupSubgroupMembership(t *testing.T) {
	g := DefaultGroup()
	for _, item := range []string{"x", "y", "", "日本語"} {
		h := g.HashToGroup(item)
		if h.Sign() <= 0 || h.Cmp(g.P) >= 0 {
			t.Errorf("hash out of range for %q", item)
		}
		one := new(big.Int).Exp(h, g.Q, g.P)
		if one.Cmp(big.NewInt(1)) != 0 {
			t.Errorf("hash of %q not in QR subgroup", item)
		}
	}
}

// Curve25519 over math/big: the reference the suite's field arithmetic
// and its Elligator 2 map are checked against.
var (
	p25519 = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	a25519 = big.NewInt(486662)
)

// leInt reads a little-endian encoding.
func leInt(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i := range b {
		be[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(be)
}

// curveRHS is u³ + A·u² + u mod p: a square iff u is on the curve, a
// non-square iff u is on the twist.
func curveRHS(u *big.Int) *big.Int {
	g := new(big.Int).Add(u, a25519)
	g.Mul(g, u).Add(g, big.NewInt(1)).Mul(g, u)
	return g.Mod(g, p25519)
}

// elligator2Ref is RFC 9380 §6.7.1 for Curve25519, x only, Z = 2.
func elligator2Ref(r *big.Int) *big.Int {
	w := new(big.Int).Mul(r, r)
	w.Lsh(w, 1).Add(w, big.NewInt(1)).Mod(w, p25519)
	x := w.ModInverse(w, p25519)
	x.Mul(x, a25519).Neg(x).Mod(x, p25519)
	if big.Jacobi(curveRHS(x), p25519) < 0 {
		x.Neg(x).Sub(x, a25519).Mod(x, p25519)
	}
	return x
}

// HashToGroup is Elligator 2 of one SHA-256(domain ‖ item) with bit 255
// cleared, pinned by a known answer so a changed domain or map shows.
func TestX25519HashToGroupKnownAnswer(t *testing.T) {
	const item = "patient-4711"
	r := sha256.Sum256([]byte(x25519HashDomain + item))
	r[31] &= 0x7f
	got := X25519Suite().HashToGroup(nil, item).(*X25519Elem)
	if want := elligator2Ref(leInt(r[:])); leInt(got[:]).Cmp(want) != 0 {
		t.Fatalf("HashToGroup(%q) = %x, want Elligator 2 of the digest, %x", item, got[:], want)
	}
	const want = "027d3bb3b1834b7025ec33ceb1ccd8647f45108b9b006279860ce8ec9b5eca06"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("HashToGroup(%q) = %x, want %s", item, got[:], want)
	}
}

// Every hashed u lies on the curve itself, never on the twist — which
// side a u is on is public and survives blinding, so a raw hash would
// put one bit of every item on the wire — and matches the reference
// map, which checks the field arithmetic on a thousand inputs.
func TestHashToCurveMembership(t *testing.T) {
	s := X25519Suite()
	sc := NewScratch()
	for i := 0; i < 1000; i++ {
		item := fmt.Sprintf("item-%d", i)
		e := s.HashToGroup(sc, item).(*X25519Elem)
		r := sha256.Sum256([]byte(x25519HashDomain + item))
		r[31] &= 0x7f
		u := leInt(e[:])
		if u.Cmp(elligator2Ref(leInt(r[:]))) != 0 {
			t.Fatalf("hash of %q = %x, not the reference map's", item, e[:])
		}
		if big.Jacobi(curveRHS(u), p25519) != 1 {
			t.Fatalf("hash of %q is not on the curve", item)
		}
		if back, err := s.DecodeElement(s.AppendElement(nil, e)); err != nil || !s.Equal(e, back) {
			t.Fatalf("hash of %q does not round-trip: %v", item, err)
		}
	}
}

// The field arithmetic at the carry and reduction edges, against math/big.
func TestFieldArithmetic(t *testing.T) {
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(19), big.NewInt(38),
		new(big.Int).Sub(p25519, big.NewInt(1)), p25519, new(big.Int).Add(p25519, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 255), new(big.Int).Sub(two256, big.NewInt(38)),
		new(big.Int).Sub(two256, big.NewInt(1))}
	for i := 0; i < 200; i++ {
		v, _ := rand.Int(rand.Reader, two256)
		edges = append(edges, v)
	}
	toFe := func(v *big.Int) fe {
		var b X25519Elem
		v.FillBytes(b[:])
		for i, j := 0, 31; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return feFromBytes(&b)
	}
	check := func(op string, x, y *big.Int, got *fe, want *big.Int) {
		t.Helper()
		var b [32]byte
		got.bytes(&b)
		if leInt(b[:]).Cmp(want.Mod(want, p25519)) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, x, y, leInt(b[:]), want)
		}
	}
	for _, x := range edges {
		for _, y := range edges[:12] {
			fx, fy := toFe(x), toFe(y)
			var z fe
			check("add", x, y, z.add(&fx, &fy), new(big.Int).Add(x, y))
			check("mul", x, y, z.mul(&fx, &fy), new(big.Int).Mul(x, y))
		}
		fx := toFe(x)
		var z fe
		check("invert", x, x, z.pow(&fx, &feExpInverse), new(big.Int).Exp(x, new(big.Int).Sub(p25519, big.NewInt(2)), p25519))
	}
}

// Double blinding commutes over 64 items, and over 64 u-coordinates on
// the twist: no hash lands there, but a peer may send them, and the
// X25519 ladder commutes on the twist as on the curve.
func TestCommutativity(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		items := make([]string, 64)
		for i := range items {
			items[i] = fmt.Sprintf("patient-%d", 4711+i)
		}
		ab, err := b.ExponentiateBatch(a.BlindBatch(items))
		if err != nil {
			t.Fatal(err)
		}
		ba, err := a.ExponentiateBatch(b.BlindBatch(items))
		if err != nil {
			t.Fatal(err)
		}
		for i := range items {
			if !s.Equal(ab[i], ba[i]) {
				t.Fatalf("double blinding of %q does not commute", items[i])
			}
		}
		if s.Name() != SuiteNameX25519 {
			return
		}
		twist := 0
		for v := int64(2); twist < 64; v++ {
			u := big.NewInt(v)
			if big.Jacobi(curveRHS(u), p25519) != -1 {
				continue
			}
			twist++
			var e X25519Elem
			e[0], e[1] = byte(v), byte(v>>8)
			if err := s.Validate(&e); err != nil {
				t.Fatalf("twist point u=%d refused: %v", v, err)
			}
			uab := s.Exp(s.Exp(&e, a.secret), b.secret)
			uba := s.Exp(s.Exp(&e, b.secret), a.secret)
			if !s.Equal(uab, uba) {
				t.Fatalf("double blinding of twist point u=%d does not commute", v)
			}
		}
	})
}

func TestIntersectBasic(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		itemsA := []string{"alice", "bob", "carol", "dan"}
		itemsB := []string{"carol", "erin", "alice"}
		idx, err := Intersect(a, b, itemsA, itemsB)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, i := range idx {
			got[itemsA[i]] = true
		}
		if len(got) != 2 || !got["alice"] || !got["carol"] {
			t.Errorf("intersection = %v", got)
		}
	})
}

func TestIntersectEdgeCases(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		// Empty sets.
		idx, err := Intersect(a, b, nil, []string{"x"})
		if err != nil || len(idx) != 0 {
			t.Errorf("empty A: %v %v", idx, err)
		}
		idx, err = Intersect(a, b, []string{"x"}, nil)
		if err != nil || len(idx) != 0 {
			t.Errorf("empty B: %v %v", idx, err)
		}
		// Disjoint.
		idx, _ = Intersect(a, b, []string{"p", "q"}, []string{"r", "s"})
		if len(idx) != 0 {
			t.Errorf("disjoint sets intersected: %v", idx)
		}
		// Identical.
		items := []string{"1", "2", "3"}
		idx, _ = Intersect(a, b, items, items)
		if len(idx) != 3 {
			t.Errorf("identical sets: %v", idx)
		}
		// Duplicates on A's side each report.
		idx, _ = Intersect(a, b, []string{"x", "x"}, []string{"x"})
		if len(idx) != 2 {
			t.Errorf("duplicate handling: %v", idx)
		}
	})
}

func TestIntersectDifferentSuitesRejected(t *testing.T) {
	a, _ := NewParty(ModPSuite(), rand.Reader)
	c, _ := NewParty(X25519Suite(), rand.Reader)
	if _, err := Intersect(a, c, []string{"x"}, []string{"x"}); err == nil {
		t.Error("MODP vs x25519 should fail")
	}
}

func TestExponentiateRejectsBadElements(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		if _, err := a.ExponentiateBatch([]Element{nil}); err == nil {
			t.Error("nil element should be rejected")
		}
		for name, bad := range badElements(t, s) {
			if _, err := a.ExponentiateBatch([]Element{bad}); err == nil {
				t.Errorf("%s element should be rejected", name)
			}
			if err := s.Validate(bad); err == nil {
				t.Errorf("Validate should reject %s element", name)
			}
		}
	})
	t.Run(retiredP256, func(t *testing.T) {
		old := p256Point(t)
		for _, s := range testSuites() {
			a, _ := parties(t, s)
			if _, err := a.ExponentiateBatch([]Element{old}); err == nil {
				t.Errorf("%s: a p256 point should be rejected", s.Name())
			}
			if err := s.Validate(old); err == nil {
				t.Errorf("%s: Validate should reject a p256 point", s.Name())
			}
		}
	})
}

func TestNewPartyValidation(t *testing.T) {
	if _, err := NewParty(nil, rand.Reader); err == nil {
		t.Error("nil suite should fail")
	}
	p, err := NewParty(ModPSuite(), nil)
	if err != nil || p == nil {
		t.Fatalf("nil rng should fall back to crypto/rand: %v", err)
	}
	// MODP secret is in [1, q-1].
	sec := (*big.Int)(p.secret.(*modpSecret))
	if sec.Sign() <= 0 || sec.Cmp(DefaultGroup().Q) >= 0 {
		t.Errorf("modp secret out of range")
	}
	ec, err := NewParty(X25519Suite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The EC secret is an X25519 key, so ECDH clamps it on every use.
	if k := (*ecdh.PrivateKey)(ec.secret.(*x25519Secret)); k.Curve() != ecdh.X25519() {
		t.Errorf("ec secret is a %v key", k.Curve())
	}
}

// wireText is the packed text of raw element bytes, spelled as
// MarshalElems spells it.
func wireText(raw []byte) string { return base64.RawStdEncoding.EncodeToString(raw) }

// columnBytes is the canonical bytes of a column, as the packed text
// carries them.
func columnBytes(s Suite, elems []Element) []byte {
	var raw []byte
	for _, e := range elems {
		raw = s.AppendElement(raw, e)
	}
	return raw
}

// envelope is a psi-elems node as a peer might write it: the given text
// and count in the given suite.
func envelope(suite, n, text string) *xmltree.Node {
	return xmltree.NewText("psi-elems", text).SetAttr("n", n).SetAttr("suite", suite)
}

// A misspelling is a column envelope every decoder must refuse. elem is
// the element an element-level refusal names, -1 when the envelope as a
// whole is refused before any element is read.
type misspelling struct {
	name string
	env  *xmltree.Node
	elem int
}

// nonCanonical is every way the tests misspell canon, a packed column of
// two elements (two, so that its last character has unused bits in both
// suites): its text, count or shape changed one way each.
func nonCanonical(s Suite, canon *xmltree.Node) []misspelling {
	text, size, suite := canon.Text, s.ElementSize(), s.Name()
	in1 := (size*8 + 5) / 6 // the first character whose bits are all element 1's
	at := func(c int, ch string) string { return text[:c] + ch + text[c+1:] }
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	last := strings.IndexByte(alphabet, text[len(text)-1])
	old, both := envelope(suite, "2", ""), envelope(suite, "2", text)
	raw, _ := base64.RawStdEncoding.DecodeString(text)
	for i := 0; i < 2; i++ {
		old.Append(xmltree.NewText("e", hex.EncodeToString(raw[i*size:(i+1)*size])))
		both.Append(xmltree.NewText("e", hex.EncodeToString(raw[i*size:(i+1)*size])))
	}
	return []misspelling{
		{"short", envelope(suite, "2", text[:len(text)-1]), -1},
		{"long", envelope(suite, "2", text+"A"), -1},
		{"padded", envelope(suite, "2", text+"="), -1},
		// A stray character in element 0 is that element's error, not
		// the decoder's verdict on the whole text (which would name the
		// last element).
		{"newline inserted", envelope(suite, "2", text[:1]+"\n"+text[1:len(text)-1]), 0},
		{"newline in place", envelope(suite, "2", at(1, "\n")), 0},
		{"carriage return", envelope(suite, "2", at(1, "\r")), 0},
		// Four skipped line breaks leave a length the decoder takes
		// without complaint, short of the column: only the alphabet
		// table refuses it.
		{"four newlines in place", envelope(suite, "2", text[:in1]+"\n\n\n\n"+text[in1+4:]), 1},
		{"padding in place", envelope(suite, "2", at(len(text)-1, "=")), 1},
		{"url-safe alphabet", envelope(suite, "2", at(in1, "-")), 1},
		{"space", envelope(suite, "2", at(1, " ")), 0},
		{"non-ascii", envelope(suite, "2", at(1, "\xe9")), 0},
		{"nonzero trailing bits", envelope(suite, "2", at(len(text)-1, alphabet[last|1:last|1+1])), 1},
		{"per-element <e> form", old, -1},
		{"packed text beside <e> children", both, -1},
		{"n one short", envelope(suite, "1", text), -1},
		{"n one over", envelope(suite, "3", text), -1},
	}
}

func TestWireRoundTrip(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		elems := a.BlindBatch([]string{"x", "y", "z"})
		node := MarshalElems(s, elems)
		if got := WireSuiteName(node); got != s.Name() {
			t.Errorf("wire suite attr = %q, want %q", got, s.Name())
		}
		if len(node.Children) != 0 || node.Text != wireText(columnBytes(s, elems)) {
			t.Errorf("envelope is not the column's packed text: %d children, %d chars", len(node.Children), len(node.Text))
		}
		back, err := UnmarshalElems(node, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != 3 {
			t.Fatalf("round trip count = %d", len(back))
		}
		for i := range elems {
			if !s.Equal(elems[i], back[i]) {
				t.Errorf("element %d mismatch", i)
			}
		}
		// Through the encoder and the parser, and empty.
		parsed, err := xmltree.ParseString(node.String())
		if err != nil {
			t.Fatal(err)
		}
		if back, err := UnmarshalElems(parsed, s); err != nil || len(back) != 3 {
			t.Errorf("parsed envelope: %d elements, %v", len(back), err)
		}
		if back, err := UnmarshalElems(MarshalElems(s, nil), s); err != nil || len(back) != 0 {
			t.Errorf("empty envelope: %d elements, %v", len(back), err)
		}
	})
}

// Five hundred x25519 elements cross in about 43 characters each: the
// packed text, not 64 hex characters in an indented <e> line apiece.
func TestWireSizeX25519(t *testing.T) {
	s := X25519Suite()
	a, _ := parties(t, s)
	items := make([]string, 500)
	for i := range items {
		items[i] = fmt.Sprintf("item-%03d", i)
	}
	var buf bytes.Buffer
	if err := MarshalElems(s, a.BlindBatch(items)).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if max := 500*43 + 64; buf.Len() > max {
		t.Errorf("500-element x25519 envelope encodes to %d B, want <= %d", buf.Len(), max)
	}
}

func TestWireRejectsBadInput(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		node := MarshalElems(s, a.BlindBatch([]string{"x", "y"}))
		for _, m := range nonCanonical(s, node) {
			_, err := UnmarshalElems(m.env, s)
			switch {
			case err == nil:
				t.Errorf("%s: decoded", m.name)
			case m.elem >= 0 && !strings.Contains(err.Error(), fmt.Sprintf("element %d:", m.elem)):
				t.Errorf("%s: want the error for element %d, got %v", m.name, m.elem, err)
			case m.elem < 0 && !strings.Contains(err.Error(), "n=") && !strings.Contains(err.Error(), "child"):
				t.Errorf("%s: want the envelope refused on its count or shape, got %v", m.name, err)
			}
		}
		node.Name = "other"
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("wrong root should fail")
		}
		node.Name = "psi-elems"
		// Suite attribute mismatch fails even when the payload decodes.
		node.SetAttr("suite", "nope")
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("suite mismatch should fail")
		}
		node.SetAttr("suite", s.Name())
		if _, err := UnmarshalElems(node, s); err != nil {
			t.Errorf("restored canonical envelope should parse: %v", err)
		}
		// A declared count that is not the count that arrived: a column
		// truncated on the way must not decode as a shorter column.
		full := MarshalElems(s, a.BlindBatch([]string{"x", "y", "z"}))
		raw := columnBytes(s, a.BlindBatch([]string{"x", "y", "z"}))
		full.Text = wireText(raw[:2*s.ElementSize()])
		if _, err := UnmarshalElems(full, s); err == nil || !strings.Contains(err.Error(), `n="3"`) {
			t.Errorf("truncated envelope (n=3, 2 elements) should fail on the count, got %v", err)
		}
		if _, err := CheckedElems(full); err == nil {
			t.Error("a relay must refuse the truncated envelope too")
		}
		for _, n := range []string{"", "two", "-2", "1", "0"} {
			full.SetAttr("n", n)
			if _, err := UnmarshalElems(full, s); err == nil {
				t.Errorf("n=%q over 2 elements should fail", n)
			}
		}
		full.SetAttr("n", "2")
		if back, err := UnmarshalElems(full, s); err != nil || len(back) != 2 {
			t.Errorf("n=2 over 2 elements should parse: %v", err)
		}
		// An envelope that declares no count is refused: nothing would
		// show that it lost elements on the way.
		delete(full.Attrs, "n")
		if _, err := UnmarshalElems(full, s); err == nil {
			t.Error("envelope without n should fail")
		}
		if _, err := CheckedElems(full); err == nil {
			t.Error("a relay must refuse an envelope without n too")
		}
	})
	// An envelope from a build before x25519, in the p256 suite it
	// negotiated: no suite this build runs decodes it, a relay refuses
	// it, and relabelling it does not help, since 33 bytes is no width
	// this build knows.
	t.Run(retiredP256, func(t *testing.T) {
		p1, p2 := p256Point(t), p256Point(t)
		node := envelope(retiredP256, "2", wireText(append(p1[:], p2[:]...)))
		if _, err := CheckedElems(node); err == nil {
			t.Error("a relay must refuse a p256 envelope")
		}
		for _, s := range testSuites() {
			if _, err := UnmarshalElems(node, s); err == nil {
				t.Errorf("%s decoded a p256 envelope", s.Name())
			}
		}
		for _, name := range []string{SuiteNameX25519, SuiteNameModP2048} {
			node.SetAttr("suite", name)
			s, err := SuiteByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalElems(node, s); err == nil {
				t.Errorf("p256 points relabelled %s decoded", name)
			}
			if _, err := CheckedElems(node); err == nil {
				t.Errorf("a relay must refuse p256 points relabelled %s", name)
			}
		}
		delete(node.Attrs, "suite")
		if _, err := CheckedElems(node); err == nil {
			t.Error("a relay must refuse unlabelled p256 points")
		}
	})
	// Out-of-range / non-member payloads per suite.
	g := DefaultGroup()
	ms := ModPSuite()
	enc := make([]byte, ms.ElementSize())
	g.P.FillBytes(enc)
	if _, err := UnmarshalElems(envelope(ms.Name(), "1", wireText(enc)), ms); err == nil {
		t.Error("out-of-range MODP element should fail")
	}
	if _, err := UnmarshalElems(envelope(ms.Name(), "1", wireText(make([]byte, ms.ElementSize()))), ms); err == nil {
		t.Error("zero MODP element should fail")
	}
	ec := X25519Suite()
	for name, e := range badElements(t, ec) {
		if e := e.(*X25519Elem); e != nil {
			if _, err := UnmarshalElems(envelope(ec.Name(), "1", wireText(e[:])), ec); err == nil {
				t.Errorf("%s x25519 element should fail", name)
			}
		}
	}
}

// What a relay checks without a group: the width of the suite the
// envelope names, the declared count, the packed text's canonical form.
// Not membership.
func TestCheckedElems(t *testing.T) {
	for _, s := range testSuites() {
		a, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		elems := a.BlindBatch([]string{"x", "y"})
		node := MarshalElems(s, elems)
		got, err := CheckedElems(node)
		if err != nil || len(got) != 2 {
			t.Fatalf("%s: canonical envelope refused: %v", s.Name(), err)
		}
		for i, e := range elems {
			if got[i] != string(s.AppendElement(nil, e)) {
				t.Errorf("%s: element %d is not its canonical bytes", s.Name(), i)
			}
		}
		for _, m := range nonCanonical(s, node) {
			_, err := CheckedElems(m.env)
			switch {
			case err == nil:
				t.Errorf("%s: %s passed the relay", s.Name(), m.name)
			case m.elem >= 0 && !strings.Contains(err.Error(), fmt.Sprintf("element %d:", m.elem)):
				t.Errorf("%s: %s should be refused at index %d, got %v", s.Name(), m.name, m.elem, err)
			}
		}
		// A non-member in canonical form passes: membership is the
		// exponentiating source's check.
		bad := envelope(s.Name(), "1", wireText(make([]byte, s.ElementSize())))
		if _, err := CheckedElems(bad); err != nil {
			t.Errorf("%s: the relay refused a canonical non-member: %v", s.Name(), err)
		}
		node.SetAttr("suite", "p256")
		if _, err := CheckedElems(node); err == nil {
			t.Errorf("%s: a suite the relay cannot size must be refused", s.Name())
		}
	}
	// An envelope naming no suite has no width to check: refused, even
	// when its elements are modp2048's width.
	unnamed := MarshalElems(ModPSuite(), []Element{ModPSuite().HashToGroup(nil, "x")})
	delete(unnamed.Attrs, "suite")
	if _, err := CheckedElems(unnamed); err == nil {
		t.Error("modp2048 envelope naming no suite accepted")
	}
}

// An envelope that names no suite is refused by the decoder and by a
// relay, in every suite: the peers that wrote such envelopes predate
// negotiation. (One without n: TestWireRejectsBadInput.)
func TestWireLegacyEnvelopeWithoutSuiteAttr(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		node := MarshalElems(s, a.BlindBatch([]string{"x", "y"}))
		delete(node.Attrs, "suite")
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("envelope without suite decoded")
		}
		if _, err := CheckedElems(node); err == nil {
			t.Error("a relay passed an envelope without suite")
		}
	})
}

// Property: the protocol computes exactly the true intersection for random
// small universes.
func TestIntersectCorrectnessProperty(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := NewParty(s, rand.Reader)
		b, _ := NewParty(s, rand.Reader)
		items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		f := func(maskA, maskB uint8) bool {
			var setA, setB []string
			want := map[string]bool{}
			for i, it := range items {
				inA := maskA&(1<<i) != 0
				inB := maskB&(1<<i) != 0
				if inA {
					setA = append(setA, it)
				}
				if inB {
					setB = append(setB, it)
				}
				if inA && inB {
					want[it] = true
				}
			}
			idx, err := Intersect(a, b, setA, setB)
			if err != nil {
				return false
			}
			got := map[string]bool{}
			for _, i := range idx {
				got[setA[i]] = true
			}
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

// The parallel kernels must produce the exact serial transcript: the
// peer sees identical bytes at any worker count.
func TestParallelBlindMatchesSerial(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		p, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]string, 50)
		for i := range items {
			items[i] = fmt.Sprintf("item-%d", i)
		}
		serial := p.SetWorkers(1).BlindBatch(items)
		for _, w := range []int{0, 2, 8} {
			// The serial pass warmed the table, so this is the hit path
			// at every width; TestBlindBatchWidthInvariant compares cold
			// computation.
			par := p.SetWorkers(w).BlindBatch(items)
			for i := range serial {
				if !s.Equal(serial[i], par[i]) {
					t.Fatalf("workers=%d: element %d differs", w, i)
				}
			}
		}
	})
}

func TestParallelExponentiateMatchesSerial(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		p, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]string, 40)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		elems := peer.BlindBatch(items)
		serial, err := p.SetWorkers(1).ExponentiateBatch(elems)
		if err != nil {
			t.Fatal(err)
		}
		par, err := p.SetWorkers(4).ExponentiateBatch(elems)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !s.Equal(serial[i], par[i]) {
				t.Fatalf("element %d differs between serial and parallel", i)
			}
		}
	})
}

func TestExponentiateRangeErrorIsDeterministic(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		p, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		good := p.BlindBatch([]string{"fine"})
		bad := []Element{good[0], nil, good[0]}
		if _, err := p.SetWorkers(4).ExponentiateBatch(bad); err == nil ||
			!strings.Contains(err.Error(), "element 1") {
			t.Fatalf("want lowest-index validation error, got %v", err)
		}
	})
}

// A warm Blind round must reuse the precomputation table rather than
// redoing group operations; correctness is checked by transcript
// equality and a full protocol round after warming.
func TestBlindPrecomputationTableReuse(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		itemsA := []string{"ann", "bob", "eve", "mallory"}
		itemsB := []string{"bob", "eve", "trent"}
		cold := a.BlindBatch(itemsA)
		warm := a.BlindBatch(itemsA)
		for i := range cold {
			// Table hits return the identical element, not a recomputation.
			if cold[i] != warm[i] {
				t.Fatalf("item %d recomputed on warm round", i)
			}
		}
		idx, err := Intersect(a, b, itemsA, itemsB)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 2 || itemsA[idx[0]] != "bob" || itemsA[idx[1]] != "eve" {
			t.Fatalf("intersection after warm rounds = %v", idx)
		}
	})
}
