// Package preserve is PRIVATE-IYE's Privacy Preservation knowledge base:
// the library of result-transforming techniques the paper's framework
// selects among (Section 4: the KB "stores different types of privacy
// preservation techniques that need to be applied to the data to address
// these breaches"). The concrete techniques are the ones the paper's
// related-work section grounds the framework in: attribute suppression and
// generalization (k-anonymity, [37]), output rounding and query-set-size
// control (statistical databases, [4]), random sample queries (Denning,
// [20]), additive and multiplicative perturbation ([5],[32]), and
// microaggregation.
package preserve

import (
	"strconv"
	"strings"
)

// Hierarchy is a value-generalization hierarchy for one attribute: level 0
// is the identity mapping and each higher level is strictly coarser, with
// the top level mapping everything to "*". Both the generalization
// technique and k-anonymity (internal/anonymity) consume these.
type Hierarchy struct {
	// Name identifies the attribute family (for diagnostics).
	Name string
	// Levels[i] maps a raw value to its level-i generalization. Levels[0]
	// must be the identity, and every level a pure function of its
	// argument: callers generalize a repeated value once.
	Levels []func(string) string
}

// Depth returns the number of levels.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Apply generalizes a value to the given level, clamping to the top.
func (h *Hierarchy) Apply(value string, level int) string {
	if level < 0 {
		level = 0
	}
	if level >= len(h.Levels) {
		level = len(h.Levels) - 1
	}
	return h.Levels[level](value)
}

func identity(s string) string { return s }

func bandLabel(lo, width int) string { return strconv.Itoa(lo) + "-" + strconv.Itoa(lo+width-1) }

// ageBand is the age level of the given band width. The labels of ages 0
// to 119 are formatted up front, so generalizing one formats and
// allocates nothing.
func ageBand(width int) func(string) string {
	labels := make([]string, 120/width)
	for i := range labels {
		labels[i] = bandLabel(i*width, width)
	}
	return func(s string) string {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return "*"
		}
		if i := v / width; i >= 0 && i < len(labels) {
			return labels[i]
		}
		return bandLabel((v/width)*width, width)
	}
}

// The three banded age levels, built once and shared by every hierarchy.
var age5, age10, age20 = ageBand(5), ageBand(10), ageBand(20)

// AgeHierarchy generalizes integer ages: exact, 5-year band, 10-year band,
// 20-year band, suppressed. Non-numeric input generalizes straight to "*".
func AgeHierarchy() *Hierarchy {
	return &Hierarchy{
		Name:   "age",
		Levels: []func(string) string{identity, age5, age10, age20, func(string) string { return "*" }},
	}
}

// ZipHierarchy generalizes 5-digit zip codes by truncation: 15213, 1521*,
// 152**, 15***, *.
func ZipHierarchy() *Hierarchy {
	trunc := func(keep int) func(string) string {
		return func(s string) string {
			s = strings.TrimSpace(s)
			if len(s) < keep {
				return "*"
			}
			return s[:keep] + strings.Repeat("*", len(s)-keep)
		}
	}
	return &Hierarchy{
		Name: "zip",
		Levels: []func(string) string{
			identity,
			trunc(4),
			trunc(3),
			trunc(2),
			func(string) string { return "*" },
		},
	}
}

// SexHierarchy generalizes sex: exact, suppressed.
func SexHierarchy() *Hierarchy {
	return &Hierarchy{
		Name: "sex",
		Levels: []func(string) string{
			identity,
			func(string) string { return "*" },
		},
	}
}

// CategoricalHierarchy builds a hierarchy from a child->parent taxonomy:
// level 0 exact, level 1 parent, level 2 "*". Values without a parent
// generalize to "*" at level 1.
func CategoricalHierarchy(name string, parent map[string]string) *Hierarchy {
	return &Hierarchy{
		Name: name,
		Levels: []func(string) string{
			identity,
			func(s string) string {
				if p, ok := parent[s]; ok {
					return p
				}
				return "*"
			},
			func(string) string { return "*" },
		},
	}
}

// DiagnosisHierarchy groups the generator's diagnosis vocabulary into
// coarse disease families.
func DiagnosisHierarchy() *Hierarchy {
	return CategoricalHierarchy("diagnosis", map[string]string{
		"diabetes":     "metabolic",
		"hypertension": "cardiovascular",
		"asthma":       "respiratory",
		"bronchitis":   "respiratory",
		"influenza":    "infectious",
		"arthritis":    "musculoskeletal",
		"depression":   "psychiatric",
		"migraine":     "neurological",
	})
}
