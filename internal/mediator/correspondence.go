package mediator

import (
	"sort"

	"privateiye/internal/schemamatch"
)

// Correspondence records that two sources' fields denote the same concept
// — the output of Mediated Schema Generation's matching step (Section 5:
// "mapping schemas to generate mediated schemas"). The mediator computes
// these from the sources' shareable field *profiles*; raw values never
// leave a source.
type Correspondence struct {
	SourceA, FieldA string
	SourceB, FieldB string
	Score           float64
}

// refreshCorrespondences matches every pair of sources' profiles.
// RefreshSchemaContext calls it before taking m.mu: it reads only the
// profiles the refresh fetched and the matcher, which is read-only.
func (m *Mediator) refreshCorrespondences(profiles map[string][]schemamatch.FieldProfile) []Correspondence {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Correspondence
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			for _, c := range m.matcher.Match(profiles[names[i]], profiles[names[j]]) {
				// Identical names are trivially correspondent; record only
				// the informative (non-identical) matches.
				if schemamatch.Normalize(c.Left) == schemamatch.Normalize(c.Right) {
					continue
				}
				out = append(out, Correspondence{
					SourceA: names[i], FieldA: c.Left,
					SourceB: names[j], FieldB: c.Right,
					Score: c.Score,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].SourceA != out[b].SourceA {
			return out[a].SourceA < out[b].SourceA
		}
		return out[a].FieldA < out[b].FieldA
	})
	return out
}

// Correspondences returns the current cross-source field correspondences
// (recomputed by RefreshSchema).
func (m *Mediator) Correspondences() []Correspondence {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Correspondence(nil), m.correspondences...)
}
