// Package daemon is the scaffold the piye-mediator, piye-source and
// piye-router servers share: the metrics registry and the trace ring,
// the optional -debug-addr surface, and listen / signal / drain. What a
// daemon serves is its own business; how it starts, stops and is looked
// into is the same for all three.
package daemon

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"privateiye/internal/obs"
)

// Daemon is one server process.
type Daemon struct {
	// Prog, the binary's name, prefixes the fatal log lines; Label names
	// the process in its debug-surface and drain lines, for a daemon with
	// an identity beyond its binary ("piye-source hospitalA").
	Prog, Label string
	// Reg carries the process metrics; Tracer keeps the last
	// obs.DefaultTraceRing finished traces for /debug/trace.
	Reg    *obs.Registry
	Tracer *obs.Tracer
}

// New builds the registry and the tracer.
func New(prog string) *Daemon {
	d := &Daemon{Prog: prog, Label: prog, Reg: obs.NewRegistry(), Tracer: obs.NewTracer(obs.DefaultTraceRing)}
	obs.RegisterProcessMetrics(d.Reg)
	return d
}

// Serve runs handler on addr until SIGINT or SIGTERM, then drains the
// in-flight work (inFlight names it in the log: "queries", "requests")
// for up to ten seconds and returns, so the caller's deferred cleanup
// runs. A listen or drain failure is fatal. A debugAddr additionally
// serves /metrics, /debug/trace and pprof there, best effort.
func (d *Daemon) Serve(addr, debugAddr string, handler http.Handler, inFlight string) {
	if debugAddr != "" {
		dsrv := &http.Server{
			Addr:              debugAddr,
			Handler:           obs.DebugHandler(d.Reg, d.Tracer),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("%s debug surface (pprof, metrics, traces) on %s", d.Label, debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("%s: debug server: %v", d.Prog, err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("%s: %v", d.Prog, err)
	case <-ctx.Done():
		stop()
		log.Printf("%s: shutting down, draining in-flight %s", d.Label, inFlight)
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatalf("%s: shutdown: %v", d.Prog, err)
		}
	}
}

// NameURL is one name=url flag value; NameURLs is the repeatable flag
// (piye-mediator's -source, piye-router's -shard).
type NameURL struct{ Name, URL string }

type NameURLs []NameURL

func (n *NameURLs) String() string { return fmt.Sprint(*n) }

func (n *NameURLs) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*n = append(*n, NameURL{name, url})
	return nil
}
