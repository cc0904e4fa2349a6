package psi

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"strconv"
	"testing"

	"privateiye/internal/xmltree"
)

// The scratch-buffer path exists to cut allocations out of the
// hash-to-group hot loop; pin that it actually does, per suite.
func TestScratchReducesAllocations(t *testing.T) {
	for _, s := range testSuites() {
		t.Run(s.Name(), func(t *testing.T) {
			sc := NewScratch()
			s.HashToGroup(sc, "warmup") // size the buffers once
			i := 0
			withScratch := testing.AllocsPerRun(200, func() {
				s.HashToGroup(sc, fmt.Sprintf("item-%d", i))
				i++
			})
			without := testing.AllocsPerRun(200, func() {
				s.HashToGroup(nil, fmt.Sprintf("item-%d", i))
				i++
			})
			if withScratch >= without {
				t.Errorf("scratch path allocates %.1f/op, no-scratch %.1f/op — scratch must be cheaper",
					withScratch, without)
			}
		})
	}
}

// The curve kernels allocate what they return and nothing else: the
// ladder's output plus crypto/ecdh's public-key wrapper and its copy of
// the input, none to decode (the element is the bytes it was decoded
// from), and none to validate or to hash beyond the element.
func TestX25519KernelAllocations(t *testing.T) {
	s := X25519Suite()
	p, err := NewParty(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	e := s.HashToGroup(sc, "warmup")
	enc := s.AppendElement(nil, e)
	for name, c := range map[string]struct {
		max float64
		f   func()
	}{
		"Exp":           {3, func() { s.Exp(e, p.secret) }},
		"DecodeElement": {0, func() { s.DecodeElement(enc) }},
		"Validate":      {0, func() { s.Validate(e) }},
		"HashToGroup":   {1, func() { s.HashToGroup(sc, "patient-4711") }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s allocates %v/op, want <= %v", name, got, c.max)
		}
	}
}

// Canonical encode must also be allocation-free once the caller's
// buffer has warmed up.
func TestAppendElementReusesBuffer(t *testing.T) {
	for _, s := range testSuites() {
		t.Run(s.Name(), func(t *testing.T) {
			e := s.HashToGroup(nil, "x")
			buf := make([]byte, 0, s.ElementSize())
			allocs := testing.AllocsPerRun(100, func() {
				buf = s.AppendElement(buf[:0], e)
			})
			if allocs != 0 {
				t.Errorf("AppendElement into warm buffer allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

func BenchmarkHashToGroup(b *testing.B) {
	for _, s := range []Suite{ModPSuite(), X25519Suite()} {
		items := make([]string, 1024)
		for i := range items {
			items[i] = fmt.Sprintf("item-%04d", i)
		}
		b.Run(s.Name()+"/scratch", func(b *testing.B) {
			sc := NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.HashToGroup(sc, items[i%len(items)])
			}
		})
		b.Run(s.Name()+"/noscratch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.HashToGroup(nil, items[i%len(items)])
			}
		})
	}
}

// The envelope is one node and one string: what it costs to build does
// not depend on how many elements it carries.
func TestMarshalElemsAllocations(t *testing.T) {
	s := X25519Suite()
	a, err := NewParty(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]string, 500)
	for i := range items {
		items[i] = fmt.Sprintf("item-%d", i)
	}
	elems := a.BlindBatch(items)
	if got := testing.AllocsPerRun(20, func() { MarshalElems(s, elems) }); got > 5 {
		t.Errorf("MarshalElems of %d x25519 elements: %v allocs, want <= 5", len(elems), got)
	}
}

// FuzzUnmarshalElems pins that envelope decoding never panics on
// arbitrary XML, for either suite, and that accepted input is exactly
// canonical: re-encoding the decoded elements reproduces the input's
// packed text byte for byte, and a relay's check passes it with the
// same bytes.
func FuzzUnmarshalElems(f *testing.F) {
	ms := ModPSuite()
	a, err := NewParty(ms, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(MarshalElems(ms, a.BlindBatch([]string{"x", "y"})).String())
	ec := X25519Suite()
	c, err := NewParty(ec, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	two := MarshalElems(ec, c.BlindBatch([]string{"x", "y"}))
	f.Add(two.String())
	f.Add(MarshalElems(ec, c.BlindBatch([]string{"x", "y", "z"})).String())
	f.Add(MarshalElems(ec, nil).String())
	for _, m := range nonCanonical(ec, two) {
		f.Add(m.env.String())
	}
	f.Add(`<psi-elems n="1" suite="x25519">CQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA</psi-elems>`)
	f.Add(`<psi-elems n="1" suite="x25519"><e>9fab</e></psi-elems>`)
	f.Add(`<psi-elems n="0"></psi-elems>`)
	f.Add(`<other/>`)
	f.Add(`<psi-elems n="x" suite="x25519"/>`)
	f.Fuzz(func(t *testing.T, doc string) {
		node, err := xmltree.ParseString(doc)
		if err != nil {
			return
		}
		for _, s := range []Suite{ModPSuite(), X25519Suite()} {
			elems, err := UnmarshalElems(node, s)
			if err != nil {
				continue
			}
			// Accepted: the canonical re-encoding must equal the input,
			// a declared count included.
			re := MarshalElems(s, elems)
			if n, ok := node.Attr("n"); ok && n != re.Attrs["n"] {
				if want, err := strconv.Atoi(n); err != nil || want != len(elems) {
					t.Fatalf("%s: accepted n=%q over %d elems", s.Name(), n, len(elems))
				}
			}
			if len(node.Children) != 0 {
				t.Fatalf("%s: accepted an envelope with %d children", s.Name(), len(node.Children))
			}
			if node.Text != re.Text {
				t.Fatalf("%s: accepted non-canonical text %q (canonical %q)", s.Name(), node.Text, re.Text)
			}
			// What a group-less relay checks is a subset of this, and it
			// hands back the same bytes.
			got, err := CheckedElems(node)
			if err != nil {
				t.Fatalf("%s: decodable envelope fails the relay's check: %v", s.Name(), err)
			}
			for i, e := range elems {
				if got[i] != string(s.AppendElement(nil, e)) {
					t.Fatalf("%s: the relay reads element %d as other bytes", s.Name(), i)
				}
			}
		}
	})
}

// FuzzX25519DecodeElement pins that u-coordinate decoding never panics,
// accepts only encodings that re-encode byte for byte, and accepts
// nothing X25519 maps to zero: every accepted element exponentiates
// (crypto/ecdh refuses an all-zero output mid-batch) to a non-zero u.
func FuzzX25519DecodeElement(f *testing.F) {
	s := X25519Suite()
	p, err := NewParty(s, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(s.AppendElement(nil, s.HashToGroup(nil, "seed")))
	bit255 := X25519Elem{9}
	bit255[31] |= 0x80
	pPlus1 := x25519P
	pPlus1[0]++
	f.Add(bit255[:])
	f.Add(x25519P[:])
	f.Add(pPlus1[:])
	for _, u := range x25519SmallOrder {
		f.Add(u[:])
	}
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := s.DecodeElement(data)
		if err != nil {
			return
		}
		if verr := s.Validate(e); verr != nil {
			t.Fatalf("decoded element fails Validate: %v", verr)
		}
		if enc := s.AppendElement(nil, e); !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding %x (canonical %x)", data, enc)
		}
		if out := s.Exp(e, p.secret).(*X25519Elem); *out == (X25519Elem{}) {
			t.Fatalf("accepted %x exponentiates to zero", data)
		}
	})
}

// FuzzModPDecodeElement is the MODP counterpart: decode never panics,
// accepted residues are valid subgroup members, and the encoding is
// canonical.
func FuzzModPDecodeElement(f *testing.F) {
	s := ModPSuite()
	e := s.HashToGroup(nil, "seed")
	f.Add(s.AppendElement(nil, e))
	f.Add(make([]byte, 256))
	f.Add([]byte{4})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := s.DecodeElement(data)
		if err != nil {
			return
		}
		if verr := s.Validate(e); verr != nil {
			t.Fatalf("decoded element fails Validate: %v", verr)
		}
		if enc := s.AppendElement(nil, e); !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding %x (canonical %x)", data, enc)
		}
	})
}
