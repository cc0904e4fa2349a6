package clinical

import (
	"fmt"

	"privateiye/internal/relational"
	"privateiye/internal/stats"
)

// Generator produces synthetic clinical workloads of arbitrary size with
// the statistical shape of the paper's scenario: patient registries with
// quasi-identifiers (for k-anonymity and record-linkage experiments),
// per-HMO compliance matrices (for scaled-up Figure 1 attacks), and
// outbreak surveillance streams (for the Example 2 disease-control
// scenario). Deterministic given the seed.
type Generator struct {
	rng *stats.Rand
}

// NewGenerator returns a generator with a deterministic stream.
func NewGenerator(seed uint64) *Generator {
	return &Generator{rng: stats.NewRand(seed)}
}

var (
	firstNames = []string{
		"Alice", "Bob", "Carol", "David", "Emma", "Farid", "Grace", "Hiro",
		"Indira", "Jun", "Kavya", "Liang", "Mei", "Noor", "Omar", "Priya",
		"Quan", "Rosa", "Siti", "Tomas", "Uma", "Viktor", "Wei", "Ximena",
		"Yusuf", "Zara",
	}
	lastNames = []string{
		"Anderson", "Bhowmick", "Chen", "Diaz", "Evans", "Fischer", "Gruen",
		"Huang", "Iwahara", "Jones", "Kim", "Lee", "Miller", "Nakamura",
		"Okafor", "Patel", "Quigley", "Rahman", "Singh", "Tan", "Ueda",
		"Varga", "Wong", "Xu", "Yamada", "Zhou",
	}
	diagnoses = []string{
		"diabetes", "hypertension", "asthma", "arthritis", "depression",
		"influenza", "bronchitis", "migraine",
	}
	regions = []string{
		"Allegheny", "Butler", "Beaver", "Washington", "Westmoreland",
		"Armstrong", "Fayette", "Greene",
	}
	syndromes = []string{
		"respiratory", "gastrointestinal", "febrile", "neurological",
	}
)

// PatientSchema is the relational schema of generated patient registries:
// the explicit identifier (id, name), the quasi-identifiers the
// k-anonymity literature standardizes on (sex, age, zip), and the
// sensitive attribute (diagnosis), plus the owning HMO.
func PatientSchema() *relational.Schema {
	return relational.MustSchema(
		relational.Column{Name: "id", Type: relational.TInt},
		relational.Column{Name: "name", Type: relational.TString},
		relational.Column{Name: "sex", Type: relational.TString},
		relational.Column{Name: "age", Type: relational.TInt},
		relational.Column{Name: "zip", Type: relational.TString},
		relational.Column{Name: "diagnosis", Type: relational.TString},
		relational.Column{Name: "hmo", Type: relational.TString},
	)
}

// Patients generates a registry of n patients spread over nHMOs HMOs.
func (g *Generator) Patients(name string, n, nHMOs int) (*relational.Table, error) {
	if n < 0 || nHMOs <= 0 {
		return nil, fmt.Errorf("clinical: bad patient workload n=%d hmos=%d", n, nHMOs)
	}
	tab := relational.NewTable(name, PatientSchema())
	for i := 0; i < n; i++ {
		sex := "F"
		if g.rng.Intn(2) == 0 {
			sex = "M"
		}
		row := relational.Row{
			relational.Int(int64(i + 1)),
			relational.Str(g.Name()),
			relational.Str(sex),
			relational.Int(int64(18 + g.rng.Intn(72))),
			relational.Str(g.Zip()),
			relational.Str(diagnoses[g.rng.Intn(len(diagnoses))]),
			relational.Str(fmt.Sprintf("HMO%d", 1+g.rng.Intn(nHMOs))),
		}
		if err := tab.Insert(row); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// Name draws a random full name.
func (g *Generator) Name() string {
	return firstNames[g.rng.Intn(len(firstNames))] + " " + lastNames[g.rng.Intn(len(lastNames))]
}

// Zip draws a random 5-digit zip code from a small western-Pennsylvania
// shaped pool (152xx), so zip generalization hierarchies have structure.
func (g *Generator) Zip() string {
	return fmt.Sprintf("152%02d", g.rng.Intn(40))
}

// CorruptName introduces typographic noise into a name: a swap, a drop, or
// a duplicate character. Private fuzzy record linkage has to survive these.
func (g *Generator) CorruptName(name string) string {
	if len(name) < 3 {
		return name
	}
	b := []byte(name)
	switch g.rng.Intn(3) {
	case 0: // swap two adjacent characters
		i := 1 + g.rng.Intn(len(b)-2)
		b[i], b[i+1] = b[i+1], b[i]
		return string(b)
	case 1: // drop a character
		i := 1 + g.rng.Intn(len(b)-2)
		return string(b[:i]) + string(b[i+1:])
	default: // double a character
		i := 1 + g.rng.Intn(len(b)-2)
		return string(b[:i]) + string(b[i]) + string(b[i:])
	}
}

// ComplianceMatrix generates an nHMOs x nTests rate matrix with the same
// shape as Figure 1: each test has a typical rate drawn in [40, 90] and
// per-HMO deviations of a few points, clamped to [0, 100]. Used to scale
// the inference attack beyond 4x3.
func (g *Generator) ComplianceMatrix(nHMOs, nTests int) [][]float64 {
	base := make([]float64, nTests)
	for t := range base {
		base[t] = g.rng.Uniform(40, 90)
	}
	m := make([][]float64, nHMOs)
	for h := range m {
		m[h] = make([]float64, nTests)
		skill := g.rng.Normal(0, 3) // an HMO is uniformly better or worse
		for t := range m[h] {
			v := base[t] + skill + g.rng.Normal(0, 4)
			if v < 0 {
				v = 0
			}
			if v > 100 {
				v = 100
			}
			m[h][t] = stats.Round(v, 1)
		}
	}
	return m
}

// OutbreakSchema is the relational schema of surveillance event streams
// for the Example 2 scenario.
func OutbreakSchema() *relational.Schema {
	return relational.MustSchema(
		relational.Column{Name: "day", Type: relational.TInt},
		relational.Column{Name: "region", Type: relational.TString},
		relational.Column{Name: "syndrome", Type: relational.TString},
		relational.Column{Name: "cases", Type: relational.TInt},
	)
}

// Outbreak generates a surveillance stream of days x regions daily case
// counts with a respiratory outbreak ramping up exponentially in one
// region from day days/2 — the SARS-shaped signal trend detection should
// find.
func (g *Generator) Outbreak(name string, days int) (*relational.Table, error) {
	if days <= 0 {
		return nil, fmt.Errorf("clinical: outbreak days=%d", days)
	}
	tab := relational.NewTable(name, OutbreakSchema())
	hotRegion := regions[g.rng.Intn(len(regions))]
	onset := days / 2
	for d := 0; d < days; d++ {
		for _, r := range regions {
			for _, s := range syndromes {
				base := 2 + g.rng.Intn(6) // endemic noise
				cases := base
				if r == hotRegion && s == "respiratory" && d >= onset {
					growth := 1.0 + 0.35*float64(d-onset)
					cases = base + int(growth*growth)
				}
				err := tab.Insert(relational.Row{
					relational.Int(int64(d)),
					relational.Str(r),
					relational.Str(s),
					relational.Int(int64(cases)),
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return tab, nil
}

// SplitOverlapping partitions patient rows into nSources overlapping
// subsets: each row lands in one home source, and with probability overlap
// it is duplicated into a second source — the dirty-duplicate situation
// the Result Integrator must clean up without revealing record origins.
func (g *Generator) SplitOverlapping(rows []relational.Row, nSources int, overlap float64) [][]relational.Row {
	out := make([][]relational.Row, nSources)
	for _, r := range rows {
		home := g.rng.Intn(nSources)
		out[home] = append(out[home], r)
		if nSources > 1 && g.rng.Float64() < overlap {
			other := g.rng.Intn(nSources - 1)
			if other >= home {
				other++
			}
			out[other] = append(out[other], r)
		}
	}
	return out
}
