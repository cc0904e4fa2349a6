package psi

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
)

// A Suite is a group with everything the commutative-encryption protocol
// needs from it: a hash-to-group map, application of a party's fixed
// secret (modular exponentiation in the MODP suite, the X25519 ladder in
// the curve suite), and a fixed-width canonical encoding whose decoder
// doubles as the membership validator at the trust boundary.
//
// Two suites ship:
//
//   - modp2048: the order-q subgroup of quadratic residues mod the
//     RFC 3526 group 14 safe prime. One group operation is a 2048-bit
//     modular exponentiation; one element is 256 bytes.
//   - x25519: u-coordinates on Curve25519 (stdlib crypto/ecdh; clamped
//     scalars clear the cofactor, DESIGN.md §14). One group operation is
//     one Montgomery ladder; one element is 32 bytes. This is the fast
//     default: far cheaper per operation and 8x smaller on the wire than
//     modp2048.
//
// Both ends of a protocol round must run the same suite — elements are
// meaningless across suites, which is why the wire envelope names its
// suite and the mediator negotiates one per fleet (see internal/mediator).
type Suite interface {
	// Name is the suite's wire identifier ("modp2048" or "x25519").
	Name() string
	// ElementSize is the exact width in bytes of a canonically encoded
	// element. Every element of the suite encodes to this many bytes;
	// DecodeElement rejects any other length.
	ElementSize() int
	// NewSecret draws a party's uniform secret scalar from rng.
	NewSecret(rng io.Reader) (Secret, error)
	// HashToGroup maps an arbitrary item into the group.
	// sc's buffers are reused across calls (pass nil for a one-shot
	// call; hot loops should carry one Scratch per goroutine).
	HashToGroup(sc *Scratch, item string) Element
	// Exp applies a secret to an element: modexp or the X25519 ladder.
	// The element must belong to this suite.
	Exp(e Element, s Secret) Element
	// AppendElement appends the canonical fixed-width encoding of e to
	// dst and returns the extended slice.
	AppendElement(dst []byte, e Element) []byte
	// DecodeElement parses exactly one canonical encoding, validating
	// membership: wrong width, out-of-range values, the identity and
	// small-order points, and non-subgroup residues are all rejected. It
	// never panics, whatever the input. The element may alias data (the
	// x25519 suite's is data itself, with no copy), so the caller hands
	// data over and must not modify it while the element is in use;
	// UnmarshalElems gives each element its own slice of a fresh slab.
	DecodeElement(data []byte) (Element, error)
	// Validate checks that e is a well-formed non-identity member of the
	// suite's group (the in-process counterpart of DecodeElement, for
	// elements that arrived as values rather than bytes).
	Validate(e Element) error
	// Equal reports whether two elements of this suite are equal.
	Equal(a, b Element) bool
}

// Element is one group element. The concrete type is owned by the suite
// that produced it (*ModPElem for the MODP suite, *X25519Elem for the
// curve suite); elements never cross suites.
type Element interface{ psiElement() }

// Secret is one party's fixed secret scalar, owned by its suite.
type Secret interface{ psiSecret() }

// Scratch holds reusable buffers: one SHA-256 state and one byte buffer
// for hash-to-group, recycled across calls so the hot path allocates
// only the element it returns, and one the batch kernels build their
// memo lookup keys in. Not safe for concurrent use; batch kernels carry
// one per worker chunk.
type Scratch struct {
	h   hash.Hash
	buf []byte
	key []byte
}

// NewScratch returns an empty scratch buffer.
func NewScratch() *Scratch { return &Scratch{h: sha256.New()} }

// Suite wire names.
const (
	// SuiteNameX25519 is the elliptic-curve suite, the fast default.
	SuiteNameX25519 = "x25519"
	// SuiteNameModP2048 is the safe-prime suite and the fail-closed
	// floor every deployment supports.
	SuiteNameModP2048 = "modp2048"
)

// DefaultSuiteName is the suite a fleet negotiates when every member
// supports it.
const DefaultSuiteName = SuiteNameX25519

// SuiteByName resolves a wire name to one of the two suites, each built
// once. Unknown names are an error, not a panic: names arrive from flags
// and from peers.
func SuiteByName(name string) (Suite, error) {
	switch name {
	case SuiteNameX25519:
		return X25519Suite(), nil
	case SuiteNameModP2048:
		return modp2048, nil
	}
	return nil, fmt.Errorf("psi: unknown suite %q", name)
}
