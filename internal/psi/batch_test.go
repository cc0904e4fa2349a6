package psi

import (
	"bytes"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"

	"privateiye/internal/xmltree"
)

// The kernels fan out over however many workers the machine has, so the
// transcript must not depend on that number: same elements in the same
// order, same counters, same validation verdict at width 1 and width N.

// sameSecret returns a cold party holding p's secret, so two widths can
// be compared on fresh computation rather than on table hits.
func sameSecret(p *Party) *Party {
	return &Party{suite: p.suite, secret: p.secret}
}

func TestBlindBatchWidthInvariant(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		serial, _ := parties(t, s)
		serial.SetWorkers(1)
		items := make([]string, 100)
		for i := range items {
			items[i] = fmt.Sprintf("item-%03d", i)
		}
		want := serial.BlindBatch(items)
		for _, w := range []int{0, 3, 8} {
			wide := sameSecret(serial).SetWorkers(w)
			got := wide.BlindBatch(items)
			for i := range items {
				if !s.Equal(want[i], got[i]) {
					t.Fatalf("workers=%d: cold blind of item %d differs from the serial one", w, i)
				}
			}
			// A second pass is pure table hits, in the same order.
			again := wide.BlindBatch(items)
			for i := range items {
				if again[i] != got[i] {
					t.Fatalf("workers=%d: item %d recomputed on the warm pass", w, i)
				}
			}
			if blinded, hits, _, _ := wide.Stats(); blinded != 200 || hits != 100 {
				t.Errorf("workers=%d: blinded, hits = %d, %d; want 200, 100 (the whole second pass)", w, blinded, hits)
			}
		}
	})
}

func TestExponentiateBatchWidthInvariant(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, peer := parties(t, s)
		items := make([]string, 50)
		for i := range items {
			items[i] = fmt.Sprintf("elem-%02d", i)
		}
		elems := peer.BlindBatch(items)
		want, err := a.SetWorkers(1).ExponentiateBatch(elems)
		if err != nil {
			t.Fatal(err)
		}
		bad := append(append([]Element{}, elems[:7]...), nil, elems[8], nil)
		for _, w := range []int{1, 0, 3, 8} {
			a.SetWorkers(w)
			got, err := a.ExponentiateBatch(elems)
			if err != nil {
				t.Fatal(err)
			}
			for i := range elems {
				if !s.Equal(want[i], got[i]) {
					t.Fatalf("workers=%d: element %d differs from the serial one", w, i)
				}
			}
			// The verdict names the lowest offending index, whichever
			// worker would have reached its element first.
			if _, err := a.ExponentiateBatch(bad); err == nil || !strings.Contains(err.Error(), "element 7:") {
				t.Errorf("workers=%d: want the error for element 7, got %v", w, err)
			}
		}
		// Rejected batches count nothing.
		if _, _, exp, _ := a.Stats(); exp != 5*50 {
			t.Errorf("exponentiated = %d, want %d", exp, 5*50)
		}
	})
}

// twins returns two cold parties holding one secret, each drawn from its
// own copy of one deterministic reader.
func twins(t *testing.T, s Suite) (*Party, *Party) {
	t.Helper()
	a, err := NewParty(s, mrand.New(mrand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewParty(s, mrand.New(mrand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// encodings is a batch's wire form, element by element.
func encodings(s Suite, elems []Element) []string {
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = string(s.AppendElement(nil, e))
	}
	return out
}

// The exponentiation memo changes no output: a party answering from a
// warm memo (whole, and with half the batch new) and its cold twin give
// byte-identical batches, and the warm one counts its hits.
func TestExponentiateMemoMatchesCold(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		warm, cold := twins(t, s)
		_, peer := parties(t, s)
		items := make([]string, 80)
		for i := range items {
			items[i] = fmt.Sprintf("memo-%02d", i)
		}
		elems := peer.BlindBatch(items)
		if _, err := warm.ExponentiateBatch(elems[:40]); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := warm.ExponentiateBatch(elems)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sameSecret(cold).ExponentiateBatch(elems)
			if err != nil {
				t.Fatal(err)
			}
			g, w := encodings(s, got), encodings(s, want)
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("round %d: element %d differs between the warm party and its cold twin", round, i)
				}
			}
		}
		// 40 cold, then 40 hits and 40 misses, then 80 hits.
		if _, _, exp, hits := warm.Stats(); exp != 200 || hits != 120 {
			t.Errorf("exponentiated, hits = %d, %d; want 200, 120", exp, hits)
		}
	})
}

// A warm batch holding bad elements is refused whole: the lowest bad
// index is named, nothing is counted, and none of its new elements is
// stored, though every good one ahead of the bad ones was validated.
func TestExponentiateMemoRefusesWarmBatchWhole(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, peer := parties(t, s)
		items := make([]string, 300)
		for i := range items {
			items[i] = fmt.Sprintf("warm-%03d", i)
		}
		elems := peer.BlindBatch(items)
		if _, err := a.ExponentiateBatch(elems[:100]); err != nil {
			t.Fatal(err)
		}
		bad := append([]Element{}, elems...)
		bad[150], bad[290] = nil, nil
		for _, w := range []int{1, 0, 3} {
			if _, err := a.SetWorkers(w).ExponentiateBatch(bad); err == nil || !strings.Contains(err.Error(), "element 150:") {
				t.Fatalf("workers=%d: want the error for element 150, got %v", w, err)
			}
		}
		if n := len(a.exps.m); n != 100 {
			t.Errorf("memo holds %d entries after refused batches, want the 100 of the accepted one", n)
		}
		if _, _, exp, hits := a.Stats(); exp != 100 || hits != 0 {
			t.Errorf("exponentiated, hits = %d, %d; want 100, 0 (refused batches count nothing)", exp, hits)
		}
	})
}

// Both memos stop growing at the cap; past it a batch is still answered
// in full, by computing what the memo could not keep.
func TestMemosCapped(t *testing.T) {
	s := X25519Suite()
	a, cold := twins(t, s)
	_, peer := parties(t, s)
	for _, m := range []*memo{&a.blinds, &a.exps} {
		m.m = make(map[string]Element, blindCacheCap)
		for i := 0; i < blindCacheCap-2; i++ {
			m.m[fmt.Sprintf("filler-%d", i)] = peer.BlindBatch([]string{"filler"})[0]
		}
	}
	items := []string{"c1", "c2", "c3", "c4", "c5"}
	elems := peer.BlindBatch(items)
	for round := 0; round < 2; round++ {
		blinded := a.BlindBatch(items)
		exped, err := a.ExponentiateBatch(elems)
		if err != nil {
			t.Fatal(err)
		}
		for i := range items {
			if blinded[i] == nil || exped[i] == nil {
				t.Fatalf("round %d: item %d has no output past the cap", round, i)
			}
		}
		if n, m := len(a.blinds.m), len(a.exps.m); n != blindCacheCap || m != blindCacheCap {
			t.Fatalf("round %d: memos hold %d and %d entries, want the cap %d", round, n, m, blindCacheCap)
		}
	}
	want, err := cold.ExponentiateBatch(elems)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := a.ExponentiateBatch(elems)
	if encodings(s, got)[4] != encodings(s, want)[4] {
		t.Error("an element past the cap exponentiates differently")
	}
	// Two of the five were kept; the second round hit only those.
	if _, bh, _, eh := a.Stats(); bh != 2 || eh != 4 {
		t.Errorf("blind hits, exp hits = %d, %d; want 2, 4", bh, eh)
	}
}

// Concurrent rounds share both memos: every answer equals a cold
// party's, whichever batch stored an entry first (run under -race).
func TestMemosConcurrentBatches(t *testing.T) {
	s := X25519Suite()
	a, cold := twins(t, s)
	_, peer := parties(t, s)
	items := make([]string, 200)
	for i := range items {
		items[i] = fmt.Sprintf("conc-%03d", i)
	}
	elems := peer.BlindBatch(items)
	wantExp, err := cold.ExponentiateBatch(elems)
	if err != nil {
		t.Fatal(err)
	}
	want := encodings(s, wantExp)
	wantBlind := encodings(s, cold.BlindBatch(items))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			got, err := a.ExponentiateBatch(elems[lo:])
			if err != nil {
				errs <- err
				return
			}
			for i, e := range encodings(s, got) {
				if e != want[lo+i] {
					errs <- fmt.Errorf("batch from %d: element %d differs", lo, lo+i)
					return
				}
			}
			for i, e := range encodings(s, a.BlindBatch(items[lo:])) {
				if e != wantBlind[lo+i] {
					errs <- fmt.Errorf("blind from %d: item %d differs", lo, lo+i)
					return
				}
			}
		}(g * 20)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A warm exponentiation and the x25519 wire codec each allocate a fixed
// number of objects, however long the column: no ladder runs and no
// element is allocated per item. An envelope is one node and one string,
// a decode one slab and one element slice, a relay's check one slab that
// becomes the column string and its substrings' slice. (MODP validation
// allocates per element by design, so the pin is on the curve suite.)
func TestWarmKernelAllocationsFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch buffers")
	}
	s := X25519Suite()
	a, peer := parties(t, s)
	type codec struct{ marshal, unmarshal, checked float64 }
	var expAt16 float64
	var codecAt16 codec
	for _, n := range []int{16, 1024} {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf("flat-%04d", i)
		}
		elems := peer.BlindBatch(items)
		if _, err := a.ExponentiateBatch(elems); err != nil {
			t.Fatal(err)
		}
		env := MarshalElems(s, elems)
		exp := testing.AllocsPerRun(20, func() { a.ExponentiateBatch(elems) })
		c := codec{
			marshal:   testing.AllocsPerRun(20, func() { MarshalElems(s, elems) }),
			unmarshal: testing.AllocsPerRun(20, func() { UnmarshalElems(env, s) }),
			checked:   testing.AllocsPerRun(20, func() { CheckedElems(env) }),
		}
		if n == 16 {
			expAt16, codecAt16 = exp, c
		}
		if exp > 16 || exp > expAt16 {
			t.Errorf("warm ExponentiateBatch of %d elements: %v allocs, want <= 16 and <= the %v at 16", n, exp, expAt16)
		}
		if c.unmarshal > 10 || c.checked > 2 || c != codecAt16 {
			t.Errorf("codec allocations at %d elements %+v, want the %+v at 16, a decode <= 10 and a relay's check <= 2", n, c, codecAt16)
		}
	}
}

// The decoder fans out like the kernels do, and like them reports the
// lowest offending index: two bad elements far enough apart to land in
// different chunks at every width, one failing the packed text's
// spelling and one membership, so the rule holds across the checks and
// not per check.
func TestUnmarshalElemsErrorIsLowestIndex(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		items := make([]string, 300)
		for i := range items {
			items[i] = fmt.Sprintf("elem-%03d", i)
		}
		blinded := a.BlindBatch(items)
		const lowBad, highBad = 37, 290
		wantErr := fmt.Sprintf("element %d:", lowBad)
		// One element misspelled (a character outside the alphabet) and
		// one a non-member (all zero), each way round: the spelling is
		// found in one pass over the text before any membership check,
		// and still loses to a lower non-member.
		size := s.ElementSize()
		for _, spelt := range []int{highBad, lowBad} {
			raw := columnBytes(s, blinded)
			zero := lowBad + highBad - spelt
			clear(raw[zero*size : (zero+1)*size])
			text := []byte(wireText(raw))
			text[(spelt*size*8+5)/6] = '-'
			bad := envelope(s.Name(), "300", string(text))
			// The decoder runs at the pool's default width; scheduling
			// varies from run to run, the verdict must not.
			for run := 0; run < 10; run++ {
				if _, err := UnmarshalElems(bad, s); err == nil || !strings.Contains(err.Error(), wantErr) {
					t.Fatalf("run %d: want the error for element %d, got %v", run, lowBad, err)
				}
			}
		}
		// The loop under it and the kernel that shares it, at every width.
		elems := append([]Element{}, blinded...)
		elems[lowBad], elems[highBad] = nil, nil
		for _, w := range []int{1, 0, 3, 8} {
			visited := make([]bool, len(items))
			err := forEachChecked(len(items), w, func(i int) error {
				visited[i] = true
				if i == lowBad || i == highBad {
					return fmt.Errorf("bad %d", i)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("workers=%d: forEachChecked: want the error for element %d, got %v", w, lowBad, err)
			}
			for i := 0; i < lowBad; i++ {
				if !visited[i] {
					t.Fatalf("workers=%d: element %d below the first failure was never checked", w, i)
				}
			}
			if _, err := a.SetWorkers(w).ExponentiateBatch(elems); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("workers=%d: ExponentiateBatch: want the error for element %d, got %v", w, lowBad, err)
			}
		}
	})
}

func TestExponentiateBatchRejectsBadElements(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := NewParty(s, rand.Reader)
		good := a.BlindBatch([]string{"x", "y"})
		bad := append(append([]Element{}, good...), nil)
		if _, err := a.ExponentiateBatch(bad); err == nil {
			t.Error("nil element must be rejected")
		}
		for name, be := range badElements(t, s) {
			withBad := append(append([]Element{}, good...), be)
			if _, err := a.ExponentiateBatch(withBad); err == nil {
				t.Errorf("%s element must be rejected", name)
			}
		}
	})
	// A point of the retired p256 suite behind good elements is refused
	// at its own index.
	t.Run(retiredP256, func(t *testing.T) {
		for _, s := range testSuites() {
			a, _ := NewParty(s, rand.Reader)
			batch := append(a.BlindBatch([]string{"x", "y"}), p256Point(t))
			if _, err := a.ExponentiateBatch(batch); err == nil || !strings.Contains(err.Error(), "element 2:") {
				t.Errorf("%s: want the error for the p256 point, element 2, got %v", s.Name(), err)
			}
		}
	})
}

func TestBlindBatchEmptyAndSerial(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := NewParty(s, rand.Reader)
		if got := a.BlindBatch(nil); len(got) != 0 {
			t.Errorf("empty batch returned %d elements", len(got))
		}
		a.SetWorkers(1)
		out := a.BlindBatch([]string{"only"})
		if len(out) != 1 || out[0] == nil {
			t.Errorf("serial single-item batch = %v", out)
		}
	})
}

// BenchmarkBlind measures a warm round, where dispatch and the table
// lock — not the group operation — are the whole cost.
func BenchmarkBlind(b *testing.B) {
	for _, s := range []Suite{ModPSuite(), X25519Suite()} {
		a, err := NewParty(s, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]string, 4096)
		for i := range items {
			items[i] = fmt.Sprintf("item-%04d", i)
		}
		a.BlindBatch(items) // warm the precomputation table
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.BlindBatch(items)
			}
		})
	}
}

// BenchmarkBlindCold measures the cold path per suite — every item is a
// fresh hash-to-group plus a fixed-secret group operation. This is the
// kernel the EC suite exists to accelerate.
func BenchmarkBlindCold(b *testing.B) {
	for _, s := range []Suite{ModPSuite(), X25519Suite()} {
		b.Run(s.Name(), func(b *testing.B) {
			items := make([]string, 256)
			for i := range items {
				items[i] = fmt.Sprintf("cold-%04d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := NewParty(s, rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				a.BlindBatch(items)
			}
		})
	}
}

// BenchmarkExponentiateBatch measures the responder's kernel per suite
// on a 512-element peer column. cold: a fresh party per iteration (made
// outside the timer), so every element is validated and runs one group
// operation; this reports elements/s for the ladder or the modexp. warm:
// one party whose memo already holds the column, so every element is
// validated and looked up. A warm allocs/op that grows with the column
// means the memo is off the path.
func BenchmarkExponentiateBatch(b *testing.B) {
	for _, s := range []Suite{ModPSuite(), X25519Suite()} {
		peer, err := NewParty(s, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]string, 512)
		for i := range items {
			items[i] = fmt.Sprintf("item-%04d", i)
		}
		elems := peer.BlindBatch(items)
		b.Run(s.Name()+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := NewParty(s, rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := a.ExponentiateBatch(elems); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.Name()+"/warm", func(b *testing.B) {
			a, err := NewParty(s, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.ExponentiateBatch(elems); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.ExponentiateBatch(elems); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireRoundTrip is one envelope's trip between two sources: a
// 500-element column marshalled, written, parsed and decoded against its
// suite, membership checks included. It reports wire bytes per element
// beside the allocations; allocs/op in the hundreds means an element is
// allocated per item again somewhere on the trip.
func BenchmarkWireRoundTrip(b *testing.B) {
	for _, s := range []Suite{X25519Suite(), ModPSuite()} {
		p, err := NewParty(s, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]string, 500)
		for i := range items {
			items[i] = fmt.Sprintf("item-%03d", i)
		}
		elems := p.BlindBatch(items)
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			wire := 0
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := MarshalElems(s, elems).Encode(&buf); err != nil {
					b.Fatal(err)
				}
				wire = buf.Len()
				node, err := xmltree.Parse(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := UnmarshalElems(node, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire)/float64(len(elems)), "B/elem")
		})
	}
}
