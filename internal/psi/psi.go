// Package psi implements two-party private set intersection under the
// decisional Diffie-Hellman assumption, in the commutative-encryption
// style of Agrawal, Evfimievski and Srikant's "Information Sharing Across
// Private Databases" (SIGMOD 2003) — reference [8] of the paper, and the
// primitive its Result Integrator needs for "object matchings ... without
// revealing the origins of the sources or the real world origins of the
// entities" (Section 5).
//
// Construction: items hash into a group. Each party holds a random
// secret scalar; because applying the secret commutes,
// H(x)^(ab) = H(x)^(ba), so after both parties have operated on both
// sets, equal items collide and nothing else does (computing H(y)^a from
// H(x)^a for x != y is a DH problem). The initiator learns which of its
// items the responder also holds; the responder learns only the
// initiator's set size.
//
// The group is pluggable via Suite: the original safe-prime MODP groups
// (quadratic residues mod RFC 3526 primes, 2048-bit modexps) and a
// Curve25519 suite (one X25519 ladder per operation, 32-byte elements),
// which is the fast default.
//
// Everything is stdlib: crypto/rand, crypto/sha256, crypto/ecdh and
// math/bits for the curve, math/big for the MODP groups.
package psi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"privateiye/internal/parallel"
)

// blindCacheCap bounds the per-party precomputation table. A source's
// linkage field rarely exceeds this; past it, extra items are simply
// recomputed rather than growing the table without bound.
const blindCacheCap = 1 << 16

// scratchPool recycles hash-to-group scratch buffers across kernel
// calls; each chunk of a call holds one for its whole run of items.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Party is one protocol participant holding a secret scalar for its
// suite.
//
// Every per-item operation (one group exponentiation each) fans out
// over the shared worker pool; SetWorkers tunes the width (0 =
// GOMAXPROCS, 1 = serial). Output order is always the input order, so
// the protocol transcript is byte-identical at any width.
type Party struct {
	suite   Suite
	secret  Secret
	workers int

	// Protocol counters (see Stats): items blinded, blinds served from
	// the precomputation table, peer elements exponentiated. Atomics, so
	// an observability scrape never contends with a round in flight.
	blindItems atomic.Uint64
	blindHits  atomic.Uint64
	expItems   atomic.Uint64

	// blinds is the fixed-secret precomputation table: because the
	// party's scalar never changes, H(item)^secret is a pure function
	// of the item, so repeated protocol rounds (the mediator re-linking
	// the same field against several peers, or periodic re-integration)
	// reuse earlier group operations instead of redoing them. Only the
	// party's own items are cached — peer-supplied elements change every
	// round (they carry the peer's fresh blinding) and would never hit.
	mu     sync.RWMutex
	blinds map[string]Element
}

// NewParty draws a fresh secret scalar for the suite from rng
// (crypto/rand.Reader in production; any reader in tests).
func NewParty(s Suite, rng io.Reader) (*Party, error) {
	if s == nil {
		return nil, errors.New("psi: nil suite")
	}
	sec, err := s.NewSecret(rng)
	if err != nil {
		return nil, err
	}
	return &Party{suite: s, secret: sec, blinds: map[string]Element{}}, nil
}

// SetWorkers fixes the fan-out width for this party's kernels: 0 (the
// default) means GOMAXPROCS, 1 forces the serial path. No configuration
// reaches it; it is the seam through which tests show that the
// transcript does not depend on the width. It returns the party for
// chaining and must not be called concurrently with protocol
// operations.
func (p *Party) SetWorkers(n int) *Party {
	p.workers = n
	return p
}

// storeBlinds installs freshly computed blinds, respecting the cap.
func (p *Party) storeBlinds(items []string, vals []Element) {
	p.mu.Lock()
	for i, it := range items {
		if vals[i] == nil {
			continue
		}
		if len(p.blinds) >= blindCacheCap {
			break
		}
		p.blinds[it] = vals[i]
	}
	p.mu.Unlock()
}

// BlindBatch hashes each item into the group and applies the party's
// secret: the first message of the protocol. Sources feed a field's
// whole value column through here. The fan-out is one pool task per
// contiguous chunk of items; each chunk reads the precomputation table
// under a single RLock and reuses a single hash-to-group scratch buffer.
// Results are memoized in the table — the scalar is fixed for the
// party's lifetime, so a warm round is pure lookups. Output order
// matches the input order regardless of worker count.
func (p *Party) BlindBatch(items []string) []Element {
	n := len(items)
	out := make([]Element, n)
	if n == 0 {
		return out
	}
	p.blindItems.Add(uint64(n))
	fresh := make([]Element, n) // only newly computed entries
	// parallel.ForEachChunk with an always-nil error never fails.
	_ = parallel.ForEachChunk(context.Background(), n, p.workers, 0, func(lo, hi int) error {
		// One table read for the whole chunk: the run of lookups shares a
		// single RLock acquisition.
		hits := 0
		p.mu.RLock()
		for i := lo; i < hi; i++ {
			if v, ok := p.blinds[items[i]]; ok {
				out[i] = v
				hits++
			}
		}
		p.mu.RUnlock()
		if hits > 0 {
			p.blindHits.Add(uint64(hits))
		}
		sc := scratchPool.Get().(*Scratch)
		for i := lo; i < hi; i++ {
			if out[i] != nil {
				continue
			}
			v := p.suite.Exp(p.suite.HashToGroup(sc, items[i]), p.secret)
			out[i], fresh[i] = v, v
		}
		scratchPool.Put(sc)
		return nil
	})
	p.storeBlinds(items, fresh)
	return out
}

// forEachChecked runs fn over [0, n) in chunks across the worker pool.
// A chunk stops at its first failure but every chunk runs (none reports
// its failure to the pool), and the error returned is the one at the
// lowest index: what the serial loop would have reported, whichever
// worker got where first.
func forEachChecked(n, workers int, fn func(i int) error) error {
	var mu sync.Mutex
	var bad int
	var badErr error
	_ = parallel.ForEachChunk(context.Background(), n, workers, 0, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				mu.Lock()
				if badErr == nil || i < bad {
					bad, badErr = i, err
				}
				mu.Unlock()
				break
			}
		}
		return nil
	})
	if badErr != nil {
		return fmt.Errorf("psi: element %d: %w", bad, badErr)
	}
	return nil
}

// ExponentiateBatch applies this party's secret to already-blinded
// elements (received from the peer), preserving order: the second
// message. Every peer element is validated, then exponentiated, one pool
// task per contiguous run; they are never cached (each round's peer
// blinding is fresh). A membership error names the lowest offending
// index, and a rejected batch returns nothing.
func (p *Party) ExponentiateBatch(elems []Element) ([]Element, error) {
	n := len(elems)
	out := make([]Element, n)
	err := forEachChecked(n, p.workers, func(i int) error {
		// Validate also refuses a nil element.
		if err := p.suite.Validate(elems[i]); err != nil {
			return err
		}
		out[i] = p.suite.Exp(elems[i], p.secret)
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.expItems.Add(uint64(n))
	return out, nil
}

// Stats reports the party's lifetime protocol counters: items blinded
// (BlindBatch calls, including cache hits), blinds served from the
// precomputation table, and peer elements exponentiated. Safe for
// concurrent use.
func (p *Party) Stats() (blinded, blindCacheHits, exponentiated uint64) {
	return p.blindItems.Load(), p.blindHits.Load(), p.expItems.Load()
}

// Intersect runs the full semi-honest protocol in-process between an
// initiator holding itemsA and a responder holding itemsB, both already
// holding secrets in the same suite. It returns the indices into itemsA
// of items the responder also holds. The message flow is exactly what
// the network transport ships:
//
//	A -> B: BlindBatch(A's items)
//	B -> A: ExponentiateBatch(that), and BlindBatch(B's items)
//	A:      ExponentiateBatch(B's blinds), compare double-blinded sets
func Intersect(initiator, responder *Party, itemsA, itemsB []string) ([]int, error) {
	if initiator.suite.Name() != responder.suite.Name() {
		return nil, fmt.Errorf("psi: parties use different suites (%s vs %s)",
			initiator.suite.Name(), responder.suite.Name())
	}
	aBlind := initiator.BlindBatch(itemsA)
	abDouble, err := responder.ExponentiateBatch(aBlind)
	if err != nil {
		return nil, err
	}
	bBlind := responder.BlindBatch(itemsB)
	baDouble, err := initiator.ExponentiateBatch(bBlind)
	if err != nil {
		return nil, err
	}
	// Key on the fixed-width canonical encoding, appended into one
	// reused buffer: width-uniform keys, no per-element allocation
	// beyond the map entries themselves.
	s := initiator.suite
	buf := make([]byte, 0, s.ElementSize())
	inB := make(map[string]struct{}, len(baDouble))
	for _, e := range baDouble {
		buf = s.AppendElement(buf[:0], e)
		inB[string(buf)] = struct{}{}
	}
	out := make([]int, 0, min(len(abDouble), len(inB)))
	for i, e := range abDouble {
		buf = s.AppendElement(buf[:0], e)
		if _, ok := inB[string(buf)]; ok {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
