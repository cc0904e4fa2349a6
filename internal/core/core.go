// Package core wires the PRIVATE-IYE components into a deployable system:
// a set of privacy-preserving sources (in-process or remote HTTP nodes)
// behind one privacy-preserving mediation engine. It is the composition
// the paper's Figure 2 draws — everything below it lives in the sibling
// packages, and the public module root (package privateiye) re-exports the
// types defined here.
package core

import (
	"fmt"

	"privateiye/internal/mediator"
	"privateiye/internal/psi"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// RemoteSource names a source node reachable over HTTP.
type RemoteSource struct {
	Name string
	URL  string
}

// SystemConfig assembles a full deployment.
type SystemConfig struct {
	// Sources are built in-process from their configurations.
	Sources []source.Config
	// Remotes are source nodes already running elsewhere.
	Remotes []RemoteSource
	// Mediator configures the mediation engine (see mediator.Config).
	// NewSystem sets Endpoints — in-process sources first, then remotes —
	// and defaults LinkageSalt. Four of its fields also reach every
	// in-process source: PlanCache and Obs where the source set none of
	// its own, Coalesce, and PSISuite — naming a MODP suite pins each
	// local to advertising only that suite, so a fleet configured this
	// way can never negotiate up to the curve. Trace is deliberately not
	// shared: source spans already appear as "source" spans on the
	// mediator's traces, and a shared ring would interleave the two
	// pipelines.
	Mediator mediator.Config
}

// System is a running PRIVATE-IYE deployment.
type System struct {
	med    *mediator.Mediator
	locals []*source.Local
	eps    []source.Endpoint
}

// NewSystem builds sources, connects remotes, and starts the mediator
// (including the initial mediated schema generation).
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Sources) == 0 && len(cfg.Remotes) == 0 {
		return nil, fmt.Errorf("core: no sources configured")
	}
	mc := cfg.Mediator
	if len(mc.LinkageSalt) == 0 {
		mc.LinkageSalt = []byte("privateiye-default-linking-salt")
	}
	if mc.PSISuite != "" {
		if _, err := psi.SuiteByName(mc.PSISuite); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sys := &System{}
	for _, sc := range cfg.Sources {
		// System-wide performance knobs reach every source that did not
		// choose its own.
		if sc.PlanCache == 0 {
			sc.PlanCache = mc.PlanCache
		}
		if sc.Obs == nil {
			sc.Obs = mc.Obs
		}
		src, err := source.New(sc)
		if err != nil {
			return nil, fmt.Errorf("core: source %s: %w", sc.Name, err)
		}
		local, err := source.NewLocal(src, nil, nil)
		if err != nil {
			return nil, err
		}
		// Coalesce reaches the sources too: concurrent identical
		// whole-column linkage calls share one computation.
		local.Coalesce = mc.Coalesce
		// A MODP-pinned fleet advertises only its pinned suite, so suite
		// negotiation fails closed to it instead of picking the curve.
		if mc.PSISuite != "" && mc.PSISuite != psi.DefaultSuiteName {
			local.AdvertisedSuites = []string{mc.PSISuite}
		}
		sys.locals = append(sys.locals, local)
		sys.eps = append(sys.eps, local)
	}
	for _, r := range cfg.Remotes {
		if r.Name == "" || r.URL == "" {
			return nil, fmt.Errorf("core: remote source needs name and url: %+v", r)
		}
		sys.eps = append(sys.eps, source.NewClient(r.URL, r.Name))
	}
	mc.Endpoints = sys.eps
	med, err := mediator.New(mc)
	if err != nil {
		return nil, err
	}
	sys.med = med
	return sys, nil
}

// Query runs one PIQL query through the mediation engine with a
// background context.
func (s *System) Query(piqlText, requester string) (*mediator.Integrated, error) {
	return s.med.Query(piqlText, requester)
}

// Mediator exposes the mediation engine (privacy control, history,
// warehouse statistics).
func (s *System) Mediator() *mediator.Mediator { return s.med }

// Close flushes and closes the mediator's durable state, if configured.
// A system without Mediator.Durability closes as a no-op.
func (s *System) Close() error { return s.med.Close() }

// Schema returns the current mediated schema.
func (s *System) Schema() *xmltree.Summary { return s.med.MediatedSchema() }

// Endpoints returns the connected source endpoints, in configuration
// order (locals first).
func (s *System) Endpoints() []source.Endpoint {
	return append([]source.Endpoint(nil), s.eps...)
}

// Locals returns the in-process sources (nil entries never occur).
func (s *System) Locals() []*source.Local {
	return append([]*source.Local(nil), s.locals...)
}
