package warehouse

import (
	"fmt"
	"testing"

	"privateiye/internal/piql"
)

func res(v string) *piql.Result {
	return &piql.Result{Columns: []string{"v"}, Rows: [][]string{{v}}}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(1, -1); err == nil {
		t.Error("negative ttl should fail")
	}
}

func TestPutGet(t *testing.T) {
	w, err := New(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Get("k"); ok {
		t.Error("empty warehouse hit")
	}
	w.Put("k", res("1"))
	got, ok := w.Get("k")
	if !ok || got.Rows[0][0] != "1" {
		t.Errorf("get = %v %v", got, ok)
	}
	// Overwrite.
	w.Put("k", res("2"))
	got, _ = w.Get("k")
	if got.Rows[0][0] != "2" {
		t.Error("overwrite failed")
	}
	hits, misses, size := w.Stats()
	if hits != 2 || misses != 1 || size != 1 {
		t.Errorf("stats = %d/%d/%d", hits, misses, size)
	}
}

func TestTTLExpiry(t *testing.T) {
	w, _ := New(10, 3)
	w.Put("k", res("1"))
	w.Tick()
	w.Tick()
	if _, ok := w.Get("k"); !ok {
		t.Error("entry should be fresh at age 2")
	}
	w.Tick()
	if _, ok := w.Get("k"); ok {
		t.Error("entry should expire at age 3")
	}
	// Expired entries stay resident (LRU evicts them eventually), so the
	// Put that follows a miss refreshes the entry in place.
	if _, _, size := w.Stats(); size != 1 {
		t.Error("expired entry should stay resident")
	}
	w.Put("k", res("2"))
	if r, ok := w.Get("k"); !ok || r.Rows[0][0] != "2" {
		t.Errorf("refreshed entry = %v ok=%v, want the new result", r, ok)
	}
	hits, misses, size := w.Stats()
	if hits != 2 || misses != 1 || size != 1 {
		t.Errorf("stats = %d/%d size %d, want 2/1 size 1", hits, misses, size)
	}
}

func TestLRUEviction(t *testing.T) {
	w, _ := New(3, 0)
	for i := 0; i < 3; i++ {
		w.Put(fmt.Sprintf("k%d", i), res("x"))
	}
	// Touch k0 so k1 is the LRU.
	if _, ok := w.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	w.Put("k3", res("x"))
	if _, ok := w.Get("k1"); ok {
		t.Error("k1 should be evicted (LRU)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := w.Get(k); !ok {
			t.Errorf("%s should survive", k)
		}
	}
}

func TestInvalidatePrefix(t *testing.T) {
	w, _ := New(10, 0)
	w.Put("srcA|q1", res("1"))
	w.Put("srcA|q2", res("2"))
	w.Put("srcB|q1", res("3"))
	if n := w.Invalidate("srcA|"); n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if _, ok := w.Get("srcA|q1"); ok {
		t.Error("srcA entries should be gone")
	}
	if _, ok := w.Get("srcB|q1"); !ok {
		t.Error("srcB entry should survive")
	}
}

func TestClock(t *testing.T) {
	w, _ := New(1, 0)
	if w.Now() != 0 {
		t.Error("clock should start at 0")
	}
	w.Tick()
	w.Tick()
	if w.Now() != 2 {
		t.Errorf("clock = %d", w.Now())
	}
}

func TestInvalidateAllWithEmptyPrefix(t *testing.T) {
	w, _ := New(10, 0)
	w.Put("a", res("1"))
	w.Put("b", res("2"))
	if n := w.Invalidate(""); n != 2 {
		t.Errorf("invalidate all = %d", n)
	}
	if _, _, size := w.Stats(); size != 0 {
		t.Error("warehouse should be empty")
	}
}
