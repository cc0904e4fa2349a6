package xmltree

import (
	"fmt"
	"strings"
)

// PathPattern is a compiled loose path pattern in the XPath-flavoured
// syntax the paper uses for privacy policies and queries, e.g.
// "//patient//dob" or "/patients/patient/*". Supported steps:
//
//   - /name  — child step: the next segment must be exactly name
//   - //name — descendant step: name may appear at any deeper level
//   - *      — wildcard: matches any single segment
//
// Both the privacy-policy languages (internal/policy) and the PIQL query
// language (internal/piql) compile their path expressions to this type, so
// policy enforcement and query evaluation agree exactly on what a path
// expression denotes.
type PathPattern struct {
	src   string
	steps []patternStep
}

type patternStep struct {
	name       string // "*" for wildcard
	descendant bool   // true if this step was introduced by //
}

// CompilePattern parses a path pattern.
func CompilePattern(src string) (*PathPattern, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, fmt.Errorf("xmltree: empty path pattern")
	}
	if !strings.HasPrefix(s, "/") {
		// A bare name is shorthand for a descendant match anywhere.
		s = "//" + s
	}
	p := &PathPattern{src: src}
	i := 0
	for i < len(s) {
		if s[i] != '/' {
			return nil, fmt.Errorf("xmltree: bad pattern %q at offset %d", src, i)
		}
		descendant := false
		i++
		if i < len(s) && s[i] == '/' {
			descendant = true
			i++
		}
		j := i
		for j < len(s) && s[j] != '/' {
			j++
		}
		name := s[i:j]
		if name == "" {
			return nil, fmt.Errorf("xmltree: empty step in pattern %q", src)
		}
		if name != "*" && !validName(name) {
			return nil, fmt.Errorf("xmltree: bad step %q in pattern %q", name, src)
		}
		p.steps = append(p.steps, patternStep{name: name, descendant: descendant})
		i = j
	}
	return p, nil
}

// String returns the original pattern source.
func (p *PathPattern) String() string { return p.src }

// Matches reports whether the absolute label path (e.g.
// "/patients/patient/dob") satisfies the pattern.
func (p *PathPattern) Matches(path string) bool {
	if !absolutePath(path) {
		return false
	}
	return matchSteps(p.steps, path, 1)
}

// MatchesPrefix reports whether the path could be a proper ancestor of
// some path matching the pattern — used by evaluators to decide whether
// descending into a subtree can still produce matches.
func (p *PathPattern) MatchesPrefix(path string) bool {
	if !absolutePath(path) {
		return false
	}
	return matchPrefix(p.steps, path, 1)
}

// The matchers walk the path's segments in place: a segment is the
// bytes from an offset up to the next '/' (empty segments included,
// exactly as strings.Split would cut them), and an offset past
// len(path) means no segment is left. Rewriting and access control
// call Matches once per (pattern, summary path) pair, so the walk
// allocates nothing.

func absolutePath(path string) bool {
	return len(path) >= 2 && path[0] == '/'
}

// segEnd returns the end of the segment starting at offset i.
func segEnd(path string, i int) int {
	if j := strings.IndexByte(path[i:], '/'); j >= 0 {
		return i + j
	}
	return len(path)
}

// matchSteps reports whether the segments of path from offset i on
// fully satisfy steps.
func matchSteps(steps []patternStep, path string, i int) bool {
	if len(steps) == 0 {
		return i > len(path)
	}
	st := steps[0]
	if !st.descendant {
		if i > len(path) {
			return false
		}
		end := segEnd(path, i)
		return segMatch(st.name, path[i:end]) && matchSteps(steps[1:], path, end+1)
	}
	// Descendant: the step may match at any depth >= 1 from here.
	for i <= len(path) {
		end := segEnd(path, i)
		if segMatch(st.name, path[i:end]) && matchSteps(steps[1:], path, end+1) {
			return true
		}
		i = end + 1
	}
	return false
}

// matchPrefix reports whether the segments of path from offset i on are
// a (not necessarily proper) prefix of some sequence matching steps.
func matchPrefix(steps []patternStep, path string, i int) bool {
	if i > len(path) {
		return true
	}
	if len(steps) == 0 {
		return false
	}
	st := steps[0]
	if !st.descendant {
		end := segEnd(path, i)
		return segMatch(st.name, path[i:end]) && matchPrefix(steps[1:], path, end+1)
	}
	for i <= len(path) {
		end := segEnd(path, i)
		if segMatch(st.name, path[i:end]) && matchPrefix(steps[1:], path, end+1) {
			return true
		}
		i = end + 1
	}
	// The descendant step could also match below the end of the path.
	return true
}

func segMatch(pattern, seg string) bool {
	return pattern == "*" || pattern == seg
}

// SelectNodes returns, in document order, every node in the tree whose
// path matches the pattern.
func (p *PathPattern) SelectNodes(root *Node) []*Node {
	var out []*Node
	root.Walk(func(n *Node) bool {
		path := n.Path()
		if p.Matches(path) {
			out = append(out, n)
		}
		return p.MatchesPrefix(path)
	})
	return out
}

// validName reports whether s is a legal element-name step: letters,
// digits, underscore, hyphen and dot, not starting with a digit, hyphen or
// dot.
func validName(s string) bool {
	for i, r := range s {
		letter := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		digit := r >= '0' && r <= '9'
		punct := r == '-' || r == '.'
		if i == 0 && !letter {
			return false
		}
		if !letter && !digit && !punct {
			return false
		}
	}
	return true
}

// LastStep returns the name of the pattern's final step ("*" for a
// wildcard). Approximate tag matching rewrites this step when a loose
// query names a field the source calls something else.
func (p *PathPattern) LastStep() string {
	return p.steps[len(p.steps)-1].name
}

// WithLastStep returns a copy of the pattern whose final step name is
// replaced. The step keeps its axis (child vs descendant).
func (p *PathPattern) WithLastStep(name string) (*PathPattern, error) {
	if !validName(name) && name != "*" {
		return nil, fmt.Errorf("xmltree: bad step name %q", name)
	}
	cp := &PathPattern{src: p.src + "→" + name, steps: append([]patternStep(nil), p.steps...)}
	cp.steps[len(cp.steps)-1].name = name
	return cp, nil
}
