package psi

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// X25519Elem is an x25519 suite element: the 32-byte little-endian
// u-coordinate of a point on Curve25519 (or, sent by a misbehaving peer,
// on its twist), canonical (u < 2^255-19) and not of small order.
type X25519Elem [32]byte

func (*X25519Elem) psiElement() {}

// x25519Secret is a party's X25519 private key; ECDH clamps it.
type x25519Secret ecdh.PrivateKey

func (*x25519Secret) psiSecret() {}

// x25519Suite implements Suite over Curve25519 through crypto/ecdh: Exp
// is the X25519 function (a constant-time Montgomery ladder on the
// clamped scalar), and no point ever goes through big.Int. DESIGN.md §14
// gives the security argument: why accepting twist points costs the
// secret nothing, and why items hash to the curve by Elligator 2 rather
// than to a raw u-coordinate.
type x25519Suite struct{}

// X25519Suite returns the Curve25519 suite: 32-byte elements, one ladder
// per group operation. It is the production default when the whole
// fleet supports it.
func X25519Suite() Suite { return x25519Suite{} }

const x25519ElemSize = 32

// x25519HashDomain separates this suite's item hash from every other
// SHA-256 of the same items.
const x25519HashDomain = "privateiye/psi/x25519/elligator2/v1:"

func (x25519Suite) Name() string     { return SuiteNameX25519 }
func (x25519Suite) ElementSize() int { return x25519ElemSize }

func (x25519Suite) NewSecret(rng io.Reader) (Secret, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var k [32]byte
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return nil, fmt.Errorf("psi: drawing secret: %w", err)
	}
	priv, err := ecdh.X25519().NewPrivateKey(k[:])
	if err != nil {
		return nil, fmt.Errorf("psi: x25519 secret: %w", err)
	}
	return (*x25519Secret)(priv), nil
}

// HashToGroup maps an item onto the curve in constant time: the
// representative r is SHA-256(domain ‖ item) with bit 255 cleared, and
// the element is Elligator 2 of r. One hash and one straight-line map,
// no counter and no retry, so the running time depends on the item's
// length only.
func (x25519Suite) HashToGroup(sc *Scratch, item string) Element {
	if sc == nil {
		sc = NewScratch()
	}
	sc.buf = append(append(sc.buf[:0], x25519HashDomain...), item...)
	e := X25519Elem(sha256.Sum256(sc.buf))
	e[31] &= 0x7f
	elligator2(&e)
	return &e
}

// Exp is X25519 with the party's secret. The element must be one
// Validate accepts (or a HashToGroup output, small-order with
// probability ~2^-250): X25519 of a small-order u is all-zero, which
// crypto/ecdh refuses, and reaching that is a bug in the caller.
func (x25519Suite) Exp(e Element, sec Secret) Element {
	pub, err := ecdh.X25519().NewPublicKey(e.(*X25519Elem)[:])
	if err == nil {
		var out []byte
		if out, err = (*ecdh.PrivateKey)(sec.(*x25519Secret)).ECDH(pub); err == nil {
			return (*X25519Elem)(out)
		}
	}
	panic("psi: x25519 Exp of an unvalidated element: " + err.Error())
}

func (x25519Suite) AppendElement(dst []byte, e Element) []byte {
	return append(dst, e.(*X25519Elem)[:]...)
}

// DecodeElement returns data itself as the element, with no copy (see
// Suite.DecodeElement).
func (x25519Suite) DecodeElement(data []byte) (Element, error) {
	if len(data) != x25519ElemSize {
		return nil, fmt.Errorf("psi: x25519 element is %d bytes, want %d", len(data), x25519ElemSize)
	}
	e := (*X25519Elem)(data)
	if err := checkU(e); err != nil {
		return nil, err
	}
	return e, nil
}

func (x25519Suite) Validate(e Element) error {
	u, ok := e.(*X25519Elem)
	if !ok || u == nil {
		return errors.New("psi: not an x25519 element")
	}
	return checkU(u)
}

func (x25519Suite) Equal(a, b Element) bool {
	return *a.(*X25519Elem) == *b.(*X25519Elem)
}

var (
	errX25519Range      = errors.New("psi: x25519 element is not a canonical u-coordinate below 2^255-19")
	errX25519SmallOrder = errors.New("psi: x25519 element is of small order")
)

// x25519P is 2^255-19, and x25519SmallOrder every canonical u of small
// order: 0 (order 2 on the curve and the twist), 1 and p-1 (order 4 on
// one each), and the two order-8 points of the curve. X25519 maps each
// to 0 under every clamped scalar.
var (
	x25519P          = X25519Elem{0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	x25519PMinus1    = X25519Elem{0xec, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	x25519SmallOrder = [...]X25519Elem{
		{0},
		{1},
		x25519PMinus1,
		{0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f, 0xc4, 0x6a, 0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16, 0x5f, 0x49, 0xb8, 0x00},
		{0x5f, 0x9c, 0x95, 0xbc, 0xa3, 0x50, 0x8c, 0x24, 0xb1, 0xd0, 0xb1, 0x55, 0x9c, 0x83, 0xef, 0x5b, 0x04, 0x44, 0x5c, 0xc4, 0x58, 0x1c, 0x8e, 0x86, 0xd8, 0x22, 0x4e, 0xdd, 0xd0, 0x9f, 0x11, 0x57},
	}
)

// checkU accepts exactly the canonical u-coordinates (u < p, so bit 255
// is clear) that are not of small order. A twist point passes: clamping
// and Curve25519's twist security make it harmless (DESIGN.md §14).
func checkU(u *X25519Elem) error {
	if !belowP(u) {
		return errX25519Range
	}
	for i := range x25519SmallOrder {
		if *u == x25519SmallOrder[i] {
			return errX25519SmallOrder
		}
	}
	return nil
}

// belowP compares little-endian u with p from the top byte down.
func belowP(u *X25519Elem) bool {
	for i := 31; i >= 0; i-- {
		if u[i] != x25519P[i] {
			return u[i] < x25519P[i]
		}
	}
	return false
}

// elligator2 replaces the representative r in e (bit 255 clear) with the
// u-coordinate of a point on Curve25519: RFC 9380 §6.7.1's
// map_to_curve_elligator2 for A = 486662, Z = 2, x only. With
// g(x) = x³ + A·x² + x and x1 = −A / (1 + 2r²), exactly one of g(x1) and
// g(−x1 − A) is a square, and u is the x whose g is. It is straight-line:
// one inversion and one Legendre symbol, each a fixed exponentiation,
// then a constant-time select. 1 + 2r² = 0 (probability 2/p) yields 0,
// where the RFC substitutes x1 = −A.
func elligator2(e *X25519Elem) {
	r := feFromBytes(e)
	var w, x1, x2, g fe
	w.mul(&r, &r)
	w.add(&w, &w)
	w.add(&w, &feOne)
	w.pow(&w, &feExpInverse)
	x1.mul(&feMinusA, &w)
	x2.mul(&feA, &w)
	x2.add(&x2, &feMinusA) // A/w − A = −x1 − A
	g.add(&x1, &feA)
	g.mul(&g, &x1)
	g.add(&g, &feOne)
	g.mul(&g, &x1)
	g.pow(&g, &feExpLegendre)
	var leg [32]byte
	g.bytes(&leg)
	nonSquare := -uint64(subtle.ConstantTimeCompare(leg[:], x25519PMinus1[:]))
	for i := range x1 {
		x1[i] ^= nonSquare & (x1[i] ^ x2[i])
	}
	x1.bytes((*[32]byte)(e))
}

// fe is an element of GF(2^255-19) in four little-endian 64-bit limbs.
// Between operations a value is any integer below 2^256 in its residue
// class; bytes reduces it fully.
type fe [4]uint64

var (
	feOne    = fe{1}
	feA      = fe{486662}
	feMinusA = fe{0xfffffffffff892e7, ^uint64(0), ^uint64(0), 0x7fffffffffffffff} // p − A
	// p-2 (x^(p-2) = 1/x, and 0 for 0) and (p-1)/2 (the Legendre symbol).
	feExpInverse  = fe{0xffffffffffffffeb, ^uint64(0), ^uint64(0), 0x7fffffffffffffff}
	feExpLegendre = fe{0xfffffffffffffff6, ^uint64(0), ^uint64(0), 0x3fffffffffffffff}
)

func feFromBytes(b *X25519Elem) fe {
	return fe{binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])}
}

// carry folds c·2^256 ≡ 38·c back into z.
func (z *fe) carry(c uint64) *fe {
	var cc uint64
	z[0], cc = bits.Add64(z[0], 38*c, 0)
	z[1], cc = bits.Add64(z[1], 0, cc)
	z[2], cc = bits.Add64(z[2], 0, cc)
	z[3], cc = bits.Add64(z[3], 0, cc)
	z[0] += 38 * cc // a wrap leaves z < 38·c, so this cannot carry
	return z
}

func (z *fe) add(x, y *fe) *fe {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	return z.carry(c)
}

// mul sets z = x·y: a schoolbook 512-bit product whose high half is
// folded back times 38 (2^256 ≡ 38). a·b + t + c < 2^128 for 64-bit a, b,
// t and c, so no high word overflows.
func (z *fe) mul(x, y *fe) *fe {
	var t [8]uint64
	for i := range 4 {
		var c uint64
		for j := range 4 {
			hi, lo := bits.Mul64(x[i], y[j])
			lo, c1 := bits.Add64(lo, t[i+j], 0)
			lo, c2 := bits.Add64(lo, c, 0)
			t[i+j], c = lo, hi+c1+c2
		}
		t[i+4] = c
	}
	var c uint64
	for i := range 4 {
		hi, lo := bits.Mul64(t[i+4], 38)
		lo, c1 := bits.Add64(lo, t[i], 0)
		lo, c2 := bits.Add64(lo, c, 0)
		z[i], c = lo, hi+c1+c2
	}
	return z.carry(c)
}

// pow sets z = x^e by square-and-multiply. e is a public constant, so
// the sequence of operations never depends on x.
func (z *fe) pow(x, e *fe) *fe {
	r, b := feOne, *x
	for i := 254; i >= 0; i-- {
		r.mul(&r, &r)
		if e[i/64]>>(i%64)&1 == 1 {
			r.mul(&r, &b)
		}
	}
	*z = r
	return z
}

// bytes writes the fully reduced little-endian encoding of z to out.
func (z *fe) bytes(out *[32]byte) {
	// Fold bit 255 (2^255 ≡ 19), leaving t < 2^255 + 19. Then t ≥ p
	// exactly when t + 19 reaches bit 255, and t + 19 − 2^255 = t − p.
	t := *z
	top := t[3] >> 63
	t[3] &^= 1 << 63
	t.add(&t, &fe{19 * top})
	u := t
	u.add(&u, &fe{19})
	top = u[3] >> 63
	u[3] &^= 1 << 63
	for i := range t {
		t[i] ^= -top & (t[i] ^ u[i])
		binary.LittleEndian.PutUint64(out[8*i:], t[i])
	}
}
