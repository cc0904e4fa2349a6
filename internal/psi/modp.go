package psi

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"slices"
)

// Group is a safe-prime group: p = 2q+1 with q prime. Protocol elements
// live in the order-q subgroup of quadratic residues.
type Group struct {
	P *big.Int // safe prime modulus
	Q *big.Int // (P-1)/2
}

// newGroup builds a group from a hex modulus, computing q.
func newGroup(hexP string) *Group {
	p, ok := new(big.Int).SetString(hexP, 16)
	if !ok {
		panic("psi: bad group constant")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	return &Group{P: p, Q: q}
}

// DefaultGroup returns the 2048-bit MODP group of RFC 3526 (group 14), a
// safe prime: the group of the modp2048 suite.
func DefaultGroup() *Group {
	return newGroup(
		"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
			"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
			"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
			"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05" +
			"98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB" +
			"9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
			"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718" +
			"3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF")
}

// HashToGroup maps an arbitrary item into the quadratic-residue subgroup:
// expand SHA-256(item) in counter mode to the modulus width, reduce mod p,
// then square. Squaring lands in QR(p), the order-q subgroup.
func (g *Group) HashToGroup(item string) *big.Int {
	return g.hashToGroup(NewScratch(), item)
}

// hashToGroup is HashToGroup against caller-owned scratch buffers: the
// SHA-256 state and the expansion buffer are recycled, so the only
// allocations left are the big.Int words of the returned element.
func (g *Group) hashToGroup(sc *Scratch, item string) *big.Int {
	byteLen := g.byteLen()
	if cap(sc.buf) < byteLen+sha256Size {
		sc.buf = make([]byte, 0, byteLen+sha256Size)
	}
	buf := sc.buf[:0]
	var ctr uint32
	var cb [4]byte
	for len(buf) < byteLen {
		sc.h.Reset()
		binary.BigEndian.PutUint32(cb[:], ctr)
		sc.h.Write(cb[:])
		io.WriteString(sc.h, item)
		buf = sc.h.Sum(buf)
		ctr++
	}
	sc.buf = buf // keep the (possibly grown) buffer for the next call
	v := new(big.Int).SetBytes(buf[:byteLen])
	v.Mod(v, g.P)
	v.Mul(v, v)
	v.Mod(v, g.P)
	// Zero is the only non-invertible outcome and requires SHA-256 output
	// ≡ 0 mod p; map it to 4 (= 2^2, a QR) for totality.
	if v.Sign() == 0 {
		return big.NewInt(4)
	}
	return v
}

const sha256Size = 32

// byteLen is the fixed encoding width of a group element.
func (g *Group) byteLen() int { return (g.P.BitLen() + 7) / 8 }

// ModPElem is a MODP-suite group element: a quadratic residue mod the
// suite's safe prime. It converts to and from *big.Int for free.
type ModPElem big.Int

func (*ModPElem) psiElement() {}

type modpSecret big.Int

func (*modpSecret) psiSecret() {}

// modpSuite implements Suite over a safe-prime group.
type modpSuite struct {
	g    *Group
	name string
	size int
}

// modp2048 is the one MODP suite, built once: parsing the modulus on
// every resolution would put a 2048-bit hex parse on every PSI call of a
// source pinned to it.
var modp2048 = func() *modpSuite {
	g := DefaultGroup()
	return &modpSuite{g: g, name: SuiteNameModP2048, size: g.byteLen()}
}()

// ModPSuite returns the safe-prime suite, "modp2048": RFC 3526 group 14.
func ModPSuite() Suite { return modp2048 }

func (s *modpSuite) Name() string     { return s.name }
func (s *modpSuite) ElementSize() int { return s.size }

func (s *modpSuite) NewSecret(rng io.Reader) (Secret, error) {
	if rng == nil {
		rng = rand.Reader
	}
	max := new(big.Int).Sub(s.g.Q, big.NewInt(1)) // [0, q-2]
	v, err := rand.Int(rng, max)
	if err != nil {
		return nil, fmt.Errorf("psi: drawing secret: %w", err)
	}
	v.Add(v, big.NewInt(1)) // [1, q-1]
	return (*modpSecret)(v), nil
}

func (s *modpSuite) HashToGroup(sc *Scratch, item string) Element {
	if sc == nil {
		sc = NewScratch()
	}
	return (*ModPElem)(s.g.hashToGroup(sc, item))
}

func (s *modpSuite) Exp(e Element, sec Secret) Element {
	v := (*big.Int)(e.(*ModPElem))
	k := (*big.Int)(sec.(*modpSecret))
	return (*ModPElem)(new(big.Int).Exp(v, k, s.g.P))
}

func (s *modpSuite) AppendElement(dst []byte, e Element) []byte {
	n := len(dst)
	dst = slices.Grow(dst, s.size)[:n+s.size]
	(*big.Int)(e.(*ModPElem)).FillBytes(dst[n:]) // zero-pads the grown tail
	return dst
}

func (s *modpSuite) DecodeElement(data []byte) (Element, error) {
	if len(data) != s.size {
		return nil, fmt.Errorf("psi: %s element is %d bytes, want %d", s.name, len(data), s.size)
	}
	v := new(big.Int).SetBytes(data)
	return s.validateInt(v)
}

func (s *modpSuite) Validate(e Element) error {
	m, ok := e.(*ModPElem)
	if !ok || m == nil {
		return fmt.Errorf("psi: not a %s element", s.name)
	}
	_, err := s.validateInt((*big.Int)(m))
	return err
}

// validateInt enforces full subgroup membership, not just the range
// check: elements must be in (1, p) and quadratic residues, so a peer
// cannot smuggle in the identity, a small-order element (-1, the only
// one in a safe-prime group), or any non-residue that would leak a bit
// of the secret through the protocol transcript.
func (s *modpSuite) validateInt(v *big.Int) (Element, error) {
	if v.Sign() <= 0 || v.Cmp(bigOne) == 0 {
		return nil, fmt.Errorf("psi: %s element is zero or the identity", s.name)
	}
	if v.Cmp(s.g.P) >= 0 {
		return nil, fmt.Errorf("psi: %s element out of group range", s.name)
	}
	if big.Jacobi(v, s.g.P) != 1 {
		return nil, fmt.Errorf("psi: %s element is not in the prime-order subgroup", s.name)
	}
	return (*ModPElem)(v), nil
}

func (s *modpSuite) Equal(a, b Element) bool {
	return (*big.Int)(a.(*ModPElem)).Cmp((*big.Int)(b.(*ModPElem))) == 0
}

var bigOne = big.NewInt(1)
