package psi

import (
	"crypto/rand"
	"fmt"
	"strings"
	"testing"
)

// The kernels fan out over however many workers the machine has, so the
// transcript must not depend on that number: same elements in the same
// order, same counters, same validation verdict at width 1 and width N.

// sameSecret returns a cold party holding p's secret, so two widths can
// be compared on fresh computation rather than on table hits.
func sameSecret(p *Party) *Party {
	return &Party{suite: p.suite, secret: p.secret, blinds: map[string]Element{}}
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
			if blinded, hits, _ := wide.Stats(); blinded != 200 || hits != 100 {
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
		if _, _, exp := a.Stats(); exp != 5*50 {
			t.Errorf("exponentiated = %d, want %d", exp, 5*50)
		}
	})
}

// The decoder fans out like the kernels do, and like them reports the
// lowest offending index: two bad elements far enough apart to land in
// different chunks at every width, one failing the hex form and one
// membership, so the rule holds across the checks and not per check.
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
		bad := MarshalElems(s, blinded)
		bad.Children[highBad].Text = strings.ToUpper(bad.Children[highBad].Text)
		bad.Children[lowBad].Text = strings.Repeat("0", 2*s.ElementSize())
		// The decoder runs at the pool's default width; scheduling varies
		// from run to run, the verdict must not.
		for run := 0; run < 10; run++ {
			if _, err := UnmarshalElems(bad, s); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("run %d: want the error for element %d, got %v", run, lowBad, err)
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

// BenchmarkExponentiateBatch measures the cold path: every element is a
// fresh group operation, so this reports elements/s for the kernel.
func BenchmarkExponentiateBatch(b *testing.B) {
	for _, s := range []Suite{ModPSuite(), X25519Suite()} {
		a, err := NewParty(s, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]string, 512)
		for i := range items {
			items[i] = fmt.Sprintf("item-%04d", i)
		}
		elems := a.BlindBatch(items)
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.ExponentiateBatch(elems); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
