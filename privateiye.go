// Package privateiye is the public API of PRIVATE-IYE, a privacy
// preserving data integration system reproducing the architecture of
// Bhowmick, Gruenwald, Iwaihara and Chatvichienchai (ICDE 2006).
//
// A deployment is a set of privacy-preserving sources behind a mediation
// engine. Each source owns its data (relational tables or XML documents),
// its privacy policy, privacy views and access rules, and runs the full
// per-source pipeline — policy-driven query rewriting, breach-class
// prediction by query clustering, privacy-conscious optimization,
// execution, result preservation, and metadata tagging. The mediator
// generates a mediated schema from the sources' partial structural
// summaries, fragments and routes queries, integrates results with
// private duplicate elimination, enforces aggregated privacy loss, and
// optionally materializes hot results (hybrid mediation).
//
// Quick start:
//
//	sys, err := privateiye.NewSystem(privateiye.SystemConfig{
//	    Sources: []privateiye.SourceConfig{{
//	        Name:    "hospitalA",
//	        Catalog: catalog, // *relational.Catalog
//	        Policy:  policy,  // *policy.Policy
//	    }},
//	})
//	res, err := sys.Query(
//	    "FOR //patients/row WHERE //age > 40 RETURN //age "+
//	        "PURPOSE research MAXLOSS 0.5", "dr-lee")
//
// Queries are written in PIQL (see internal/piql): an XQuery-flavoured
// FOR/WHERE/RETURN language with loose path matching plus the paper's two
// privacy clauses, PURPOSE and MAXLOSS.
package privateiye

import (
	"privateiye/internal/core"
	"privateiye/internal/mediator"
	"privateiye/internal/source"
)

// SystemConfig assembles a deployment; see core.SystemConfig.
type SystemConfig = core.SystemConfig

// MediatorConfig configures the mediation engine (warehouse, privacy
// control threshold, durability, sharding, ...); set it on
// SystemConfig.Mediator. See mediator.Config.
type MediatorConfig = mediator.Config

// SourceConfig configures one in-process source; see source.Config.
type SourceConfig = source.Config

// RemoteSource points at a source node running elsewhere.
type RemoteSource = core.RemoteSource

// System is a running deployment.
type System = core.System

// Integrated is the result of one mediated query.
type Integrated = mediator.Integrated

// NewSystem builds and starts a deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	return core.NewSystem(cfg)
}
