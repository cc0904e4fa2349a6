// Package linkage implements privacy-preserving record linkage: deciding
// that records held by different sources describe the same real-world
// entity without revealing the records themselves. The paper's Result
// Integrator needs exactly this — "discovering records that represent the
// same real world entity from two integrated databases, each of which is
// protected" and duplicate removal "without revealing the origins of the
// sources or the real world origins of the entities" (Sections 2 and 5).
//
// Two mechanisms compose:
//
//   - exact matching via internal/psi on keyed record identifiers, and
//   - fuzzy matching via Bloom-filter encodings of character q-grams
//     (Schnell-Bachteler-Reiher construction): both sources encode each
//     field into an m-bit filter using k keyed hash functions under a
//     shared secret salt; Dice similarity of the filters approximates
//     q-gram similarity of the plaintexts, so typos survive while the
//     plaintext never leaves the source.
//
// Blocking uses a keyed phonetic code (HMAC-style keyed hash of Soundex)
// so sources only compare encodings within small agreed buckets.
package linkage

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
)

// Bitset is a fixed-size bit vector.
type Bitset struct {
	bits []uint64
	m    int
}

// NewBitset returns an all-zero bitset of m bits.
func NewBitset(m int) *Bitset {
	return &Bitset{bits: make([]uint64, (m+63)/64), m: m}
}

// Len returns the bit capacity.
func (b *Bitset) Len() int { return b.m }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.bits[i/64] |= 1 << (uint(i) % 64)
}

// Get reports bit i.
func (b *Bitset) Get(i int) bool {
	return b.bits[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// andCount returns |a AND b|.
func andCount(a, b *Bitset) int {
	n := 0
	for i := range a.bits {
		w := a.bits[i] & b.bits[i]
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Dice returns the Dice coefficient 2|A∩B| / (|A|+|B|) of two same-size
// bitsets; 1 means identical, 0 disjoint.
func Dice(a, b *Bitset) (float64, error) {
	if a.m != b.m {
		return 0, fmt.Errorf("linkage: bitset sizes differ: %d vs %d", a.m, b.m)
	}
	ca, cb := a.Count(), b.Count()
	if ca+cb == 0 {
		return 1, nil
	}
	return 2 * float64(andCount(a, b)) / float64(ca+cb), nil
}

// Encoder builds Bloom-filter encodings of strings. All linking parties
// must share the same parameters and Salt; the salt is the shared secret
// that stops a dictionary attack by outsiders.
type Encoder struct {
	M    int    // filter size in bits
	K    int    // hash functions per q-gram
	Q    int    // q-gram length
	Salt []byte // shared secret key
}

// NewEncoder validates and returns an encoder. Standard parameters from
// the record-linkage literature: m=1000, k=20, q=2.
func NewEncoder(m, k, q int, salt []byte) (*Encoder, error) {
	if m <= 0 || k <= 0 || q <= 0 {
		return nil, fmt.Errorf("linkage: bad encoder parameters m=%d k=%d q=%d", m, k, q)
	}
	if len(salt) == 0 {
		return nil, fmt.Errorf("linkage: empty salt")
	}
	return &Encoder{M: m, K: k, Q: q, Salt: salt}, nil
}

// qgrams returns the padded character q-grams of s, lowercased. Padding
// with q-1 boundary marks follows the standard construction so prefixes
// and suffixes carry weight.
func (e *Encoder) qgrams(s string) []string {
	s = strings.ToLower(strings.TrimSpace(s))
	pad := strings.Repeat("_", e.Q-1)
	s = pad + s + pad
	runes := []rune(s)
	if len(runes) < e.Q {
		return nil
	}
	out := make([]string, 0, len(runes)-e.Q+1)
	for i := 0; i+e.Q <= len(runes); i++ {
		out = append(out, string(runes[i:i+e.Q]))
	}
	return out
}

// Encode builds the Bloom-filter encoding of s: each q-gram sets K bits
// derived from HMAC-SHA256(salt, gram || counter).
func (e *Encoder) Encode(s string) *Bitset {
	b := NewBitset(e.M)
	for _, gram := range e.qgrams(s) {
		mac := hmac.New(sha256.New, e.Salt)
		mac.Write([]byte(gram))
		digest := mac.Sum(nil)
		// Derive K positions from the digest, extending with counter
		// blocks when K*8 bytes exceed one digest.
		for j := 0; j < e.K; j++ {
			off := (j * 8) % (len(digest) - 7)
			if j > 0 && off == 0 {
				mac.Write([]byte{byte(j)})
				digest = mac.Sum(nil)
			}
			pos := binary.BigEndian.Uint64(digest[off:off+8]) % uint64(e.M)
			b.Set(int(pos))
		}
	}
	return b
}

// Soundex computes the classical Soundex phonetic code of a name token.
func Soundex(s string) string {
	s = strings.ToUpper(strings.TrimSpace(s))
	if s == "" {
		return "0000"
	}
	code := func(r byte) byte {
		switch r {
		case 'B', 'F', 'P', 'V':
			return '1'
		case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
			return '2'
		case 'D', 'T':
			return '3'
		case 'L':
			return '4'
		case 'M', 'N':
			return '5'
		case 'R':
			return '6'
		}
		return 0
	}
	first := s[0]
	out := []byte{first}
	prev := code(first)
	for i := 1; i < len(s) && len(out) < 4; i++ {
		c := s[i]
		if c < 'A' || c > 'Z' {
			continue
		}
		d := code(c)
		if d == 0 {
			// Vowels (and H/W/Y) reset the adjacency rule except H/W which
			// are transparent.
			if c != 'H' && c != 'W' {
				prev = 0
			}
			continue
		}
		if d != prev {
			out = append(out, d)
		}
		prev = d
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}

// BlockKey returns the keyed blocking bucket for a name: an HMAC of the
// Soundex code of its last token. Records compare only within equal
// blocks, cutting the quadratic comparison cost without leaking the
// phonetic code itself.
func BlockKey(salt []byte, name string) string {
	tokens := strings.Fields(name)
	last := name
	if len(tokens) > 0 {
		last = tokens[len(tokens)-1]
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write([]byte(Soundex(last)))
	return fmt.Sprintf("%x", mac.Sum(nil)[:8])
}
