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

// blindCacheCap bounds each of a party's two fixed-secret memos. A
// source's linkage field rarely exceeds this; past it, extra entries are
// simply recomputed rather than growing a memo without bound.
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
	// their memo, peer elements exponentiated, exponentiations served
	// from theirs. Atomics, so an observability scrape never contends
	// with a round in flight.
	blindItems atomic.Uint64
	blindHits  atomic.Uint64
	expItems   atomic.Uint64
	expHits    atomic.Uint64

	// The fixed-secret memos. The party's scalar never changes, so its
	// secret applied to an input is a pure function of that input, and
	// repeated protocol rounds reuse earlier group operations instead of
	// redoing them. blinds holds H(item)^secret by item. exps holds
	// e^secret by the canonical encoding of a peer element e: the peer's
	// secret is fixed too, and its blinded column comes out of its own
	// blinds, so the column it sends is byte-identical in every round of
	// one overlap.
	blinds memo
	exps   memo
}

// memo is one fixed-secret table, capped at blindCacheCap entries. The
// zero value is empty and ready to use.
type memo struct {
	mu sync.RWMutex
	m  map[string]Element
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
	return &Party{suite: s, secret: sec}, nil
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

// memoized is the chunk routine both messages share. Each pool task
// takes a contiguous chunk of [0, n), looks all of its keys up in t
// under a single RLock (key appends input i's key to a scratch buffer),
// and runs compute, with one hash-to-group scratch, only on the misses.
// It returns the outputs in input order and the freshly computed ones
// (nil where the output was a hit), which the caller stores once it
// knows the batch stands.
func (p *Party) memoized(t *memo, hits *atomic.Uint64, n int,
	key func(dst []byte, i int) []byte, compute func(sc *Scratch, i int) Element) (out, fresh []Element) {
	out, fresh = make([]Element, n), make([]Element, n)
	// parallel.ForEachChunk with an always-nil error never fails.
	_ = parallel.ForEachChunk(context.Background(), n, p.workers, 0, func(lo, hi int) error {
		sc := scratchPool.Get().(*Scratch)
		found := 0
		t.mu.RLock()
		for i := lo; i < hi; i++ {
			sc.key = key(sc.key[:0], i)
			if v, ok := t.m[string(sc.key)]; ok {
				out[i] = v
				found++
			}
		}
		t.mu.RUnlock()
		if found > 0 {
			hits.Add(uint64(found))
		}
		for i := lo; i < hi; i++ {
			if out[i] == nil {
				out[i] = compute(sc, i)
				fresh[i] = out[i]
			}
		}
		scratchPool.Put(sc)
		return nil
	})
	return out, fresh
}

// store installs the fresh values of a batch under key(i), up to the
// cap.
func (t *memo) store(fresh []Element, key func(i int) string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = map[string]Element{}
	}
	for i, v := range fresh {
		if v != nil && len(t.m) < blindCacheCap {
			t.m[key(i)] = v
		}
	}
}

// BlindBatch hashes each item into the group and applies the party's
// secret: the first message of the protocol. Sources feed a field's
// whole value column through here, so a warm round is pure lookups.
// Output order matches the input order regardless of worker count.
func (p *Party) BlindBatch(items []string) []Element {
	p.blindItems.Add(uint64(len(items)))
	out, fresh := p.memoized(&p.blinds, &p.blindHits, len(items),
		func(dst []byte, i int) []byte { return append(dst, items[i]...) },
		func(sc *Scratch, i int) Element { return p.suite.Exp(p.suite.HashToGroup(sc, items[i]), p.secret) })
	p.blinds.store(fresh, func(i int) string { return items[i] })
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
// message. Every peer element is validated first, hit or miss; a
// membership error names the lowest offending index, and a rejected
// batch returns nothing and stores nothing. Then each element is looked
// up in the memo by its canonical encoding and exponentiated only on a
// miss, and the misses are stored.
func (p *Party) ExponentiateBatch(elems []Element) ([]Element, error) {
	// Validate also refuses a nil element.
	err := forEachChecked(len(elems), p.workers, func(i int) error { return p.suite.Validate(elems[i]) })
	if err != nil {
		return nil, err
	}
	p.expItems.Add(uint64(len(elems)))
	out, fresh := p.memoized(&p.exps, &p.expHits, len(elems),
		func(dst []byte, i int) []byte { return p.suite.AppendElement(dst, elems[i]) },
		func(_ *Scratch, i int) Element { return p.suite.Exp(elems[i], p.secret) })
	var buf []byte
	p.exps.store(fresh, func(i int) string {
		buf = p.suite.AppendElement(buf[:0], elems[i])
		return string(buf)
	})
	return out, nil
}

// Stats reports the party's lifetime protocol counters: items blinded
// (BlindBatch calls, including memo hits), blinds served from their
// memo, peer elements exponentiated (hits included), and
// exponentiations served from their memo. Safe for concurrent use.
func (p *Party) Stats() (blinded, blindCacheHits, exponentiated, expCacheHits uint64) {
	return p.blindItems.Load(), p.blindHits.Load(), p.expItems.Load(), p.expHits.Load()
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
