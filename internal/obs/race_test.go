package obs

// Race-detector coverage (satellite task): concurrent counter, gauge
// and histogram writes during live /metrics scrapes, and trace
// recording under concurrent ring-buffer reads. These tests assert
// little — their job is to give `go test -race` interleavings to chew
// on at every registry and tracer lock.

import (
	"io"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestConcurrentMetricsWritesDuringScrape(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("piye_func_total", func() float64 { return 1 })
	const writers = 8
	const perWriter = 500
	var wg, scrapers sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers: continuous /metrics renders while writers are hot. They
	// run until stop closes, so they wait on their own group — adding
	// them to wg would deadlock wg.Wait against close(stop).
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			h := MetricsHandler(r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				_, _ = io.ReadAll(rec.Result().Body)
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the writers hammer one shared series, half register
			// fresh series mid-scrape.
			shared := r.Counter("piye_race_total", "kind", "shared")
			hist := r.Histogram("piye_race_seconds", nil, "kind", "shared")
			for i := 0; i < perWriter; i++ {
				shared.Inc()
				hist.Observe(float64(i) / 1000)
				r.Gauge("piye_race_gauge", "writer", string(rune('a'+w))).Set(float64(i))
				if w%2 == 0 && i%50 == 0 {
					r.Counter("piye_race_total", "kind", "fresh", "i", string(rune('a'+i%26))).Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	if got := r.Counter("piye_race_total", "kind", "shared").Value(); got != writers*perWriter {
		t.Fatalf("shared counter = %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("piye_race_seconds", nil, "kind", "shared").Count(); got != writers*perWriter {
		t.Fatalf("hist count = %d, want %d", got, writers*perWriter)
	}
}

func TestConcurrentTracesDuringRingReads(t *testing.T) {
	tr := NewTracer(16)
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	// Readers: continuous ring reads and JSON renders (own group; see
	// the scraper note above).
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			h := TraceHandler(tr)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.Last(8)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?last=4", nil))
			}
		}()
	}

	// Writers: traces whose spans land from two goroutines, as in the
	// mediator's fan-out.
	const traces = 300
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				trace := tr.Start("racer", "q")
				var spans sync.WaitGroup
				for s := 0; s < 2; s++ {
					spans.Add(1)
					go func(s int) {
						defer spans.Done()
						trace.Record("fanout", "src", trace.Begin, 0, OutcomeAnswered)
					}(s)
				}
				spans.Wait()
				trace.Finish(OutcomeAnswered)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	got := tr.Last(16)
	if len(got) != 16 {
		t.Fatalf("ring holds %d traces, want 16", len(got))
	}
	for _, trc := range got {
		if len(trc.Spans) != 2 {
			t.Fatalf("trace %d has %d spans, want 2", trc.ID, len(trc.Spans))
		}
	}
}
