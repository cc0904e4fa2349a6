// Command piye-source runs one PRIVATE-IYE remote source as an HTTP node.
// It hosts a demo clinical dataset (or the Figure 1 compliance table, or
// an outbreak surveillance stream), loads its privacy policy from an XML
// file or uses a conservative default, and serves the source protocol:
// /summary, /profiles, /query, /psi/*. Data-subject preferences are read
// from -preferences files at start-up.
//
// Usage:
//
//	piye-source -name hospitalA -addr :7101 -dataset patients -rows 1000
//	piye-source -name integrator -addr :7102 -dataset compliance
//	piye-source -name surveillance -addr :7103 -dataset outbreak -policy policy.xml
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"privateiye/cmd/internal/daemon"
	"privateiye/internal/clinical"
	"privateiye/internal/policy"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

func main() {
	name := flag.String("name", "hospitalA", "source name")
	addr := flag.String("addr", ":7101", "listen address")
	dataset := flag.String("dataset", "patients", "dataset: patients | compliance | outbreak")
	rows := flag.Int("rows", 1000, "dataset size (patients/outbreak days)")
	seed := flag.Uint64("seed", 1, "data generator seed")
	policyFile := flag.String("policy", "", "privacy policy XML file (default: built-in research policy)")
	prefFiles := flag.String("preferences", "", "comma-separated data-subject preference XML files")
	psiSuite := flag.String("psi-suite", psi.DefaultSuiteName, "PSI ciphersuite to prefer: x25519 (fast EC default) | modp2048 (pins this source to the safe-prime group — it advertises nothing else, so the fleet negotiates down to it)")
	coalesce := flag.Bool("coalesce", false, "merge concurrent identical whole-column PSI blinds into one shared computation")
	planCache := flag.Int("plan-cache", 256, "parse/plan cache capacity in entries (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /metrics, /debug/trace and /debug/pprof (empty = pprof off; /metrics and /debug/trace are always on -addr)")
	flag.Parse()

	cat := relational.NewCatalog()
	g := clinical.NewGenerator(*seed)
	switch *dataset {
	case "patients":
		tab, err := g.Patients("patients", *rows, 4)
		if err != nil {
			log.Fatalf("piye-source: %v", err)
		}
		must(cat.Add(tab))
	case "compliance":
		tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
		if err != nil {
			log.Fatalf("piye-source: %v", err)
		}
		must(cat.Add(tab))
	case "outbreak":
		tab, err := g.Outbreak("events", *rows)
		if err != nil {
			log.Fatalf("piye-source: %v", err)
		}
		must(cat.Add(tab))
	default:
		log.Fatalf("piye-source: unknown dataset %q", *dataset)
	}

	pol, err := loadPolicy(*policyFile, *name)
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}

	d := daemon.New("piye-source")
	d.Label = "piye-source " + *name
	src, err := source.New(source.Config{Name: *name, Catalog: cat, Policy: pol, Seed: *seed, PlanCache: *planCache, Obs: d.Reg, Trace: d.Tracer})
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}
	must(addPreferences(src, *prefFiles))
	local, err := source.NewLocal(src, nil, nil)
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}
	local.Coalesce = *coalesce
	if _, err := psi.SuiteByName(*psiSuite); err != nil {
		log.Fatalf("piye-source: -psi-suite: %v", err)
	}
	if *psiSuite != psi.DefaultSuiteName {
		// A MODP-pinned source advertises only its pinned suite; a mixed
		// fleet behind an EC-preferring mediator then negotiates down to
		// it instead of failing mid-protocol.
		local.AdvertisedSuites = []string{*psiSuite}
	}

	log.Printf("piye-source %s serving %s (%s) on %s", *name, *dataset, pol.Owner, *addr)
	d.Serve(*addr, *debugAddr, source.NewHandler(local), "requests")
}

func must(err error) {
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}
}

// addPreferences registers with src each data-subject preference XML file
// named in files, a comma-separated list. These files are the only way a
// preference reaches a running source: no route takes one.
func addPreferences(src *source.Source, files string) error {
	if files == "" {
		return nil
	}
	for _, f := range strings.Split(files, ",") {
		data, err := os.ReadFile(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("reading preference %s: %w", f, err)
		}
		pref, err := policy.ParsePolicy(string(data))
		if err != nil {
			return fmt.Errorf("preference %s: %w", f, err)
		}
		if err := src.AddPreference(pref); err != nil {
			return err
		}
		log.Printf("piye-source %s: registered preference policy of %s", src.Name(), pref.Owner)
	}
	return nil
}

// loadPolicy reads a policy XML file, or returns the built-in default: a
// research-oriented policy that shares demographics exactly, zip codes as
// ranges, diagnoses and rates only in aggregate, and denies identifiers.
func loadPolicy(path, owner string) (*policy.Policy, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading policy: %w", err)
		}
		return policy.ParsePolicy(string(data))
	}
	return policy.NewPolicy(owner, policy.Deny,
		policy.Rule{Item: "//row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7},
		policy.Rule{Item: "//row/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		policy.Rule{Item: "//row/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/id", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.8},
		policy.Rule{Item: "//events//*", Purpose: "public-health", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
	)
}
