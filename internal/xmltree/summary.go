package xmltree

import (
	"sort"
	"strings"
)

// Summary is a structural summary of a document collection: the set of
// distinct root-to-node label paths, annotated with occurrence counts and a
// leaf flag. It is the "partial structural summary of the remote sources"
// that the paper's Mediated Schema Generation module builds (Section 5) —
// a DataGuide in the TSIMMIS/Lore tradition, which the paper cites as its
// architectural ancestor.
type Summary struct {
	paths map[string]*PathInfo
}

// PathInfo describes one distinct label path in a summary.
type PathInfo struct {
	Path  string // absolute label path, e.g. /patients/patient/dob
	Count int    // number of nodes with this path
	Leaf  bool   // true if at least one node with this path had no children
}

// NewSummary returns an empty structural summary.
func NewSummary() *Summary {
	return &Summary{paths: map[string]*PathInfo{}}
}

// AddDocument folds one document tree into the summary.
func (s *Summary) AddDocument(root *Node) {
	root.Walk(func(n *Node) bool {
		p := n.Path()
		info, ok := s.paths[p]
		if !ok {
			info = &PathInfo{Path: p}
			s.paths[p] = info
		}
		info.Count++
		if len(n.Children) == 0 {
			info.Leaf = true
		}
		return true
	})
}

// Paths returns every distinct path, sorted.
func (s *Summary) Paths() []PathInfo {
	out := make([]PathInfo, 0, len(s.paths))
	for _, info := range s.paths {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// AnyPath reports whether match holds for some path, visiting paths in
// no particular order and copying none of them.
func (s *Summary) AnyPath(match func(path string) bool) bool {
	for p := range s.paths {
		if match(p) {
			return true
		}
	}
	return false
}

// Has reports whether the exact path occurs in the summary.
func (s *Summary) Has(path string) bool {
	_, ok := s.paths[path]
	return ok
}

// Len returns the number of distinct paths.
func (s *Summary) Len() int { return len(s.paths) }

// Redact returns a copy of the summary with every path removed for which
// drop returns true. This is how a privacy-aware source publishes only the
// shareable part of its schema: the mediated schema "may not contain
// sufficient information" (Section 5) precisely because of this step.
func (s *Summary) Redact(drop func(path string) bool) *Summary {
	out := NewSummary()
	for p, info := range s.paths {
		if drop(p) {
			continue
		}
		cp := *info
		out.paths[p] = &cp
	}
	return out
}

// Merge folds other into s, summing counts; it is how the mediator
// aggregates the partial summaries of several sources into one mediated
// schema.
func (s *Summary) Merge(other *Summary) {
	for p, info := range other.paths {
		dst, ok := s.paths[p]
		if !ok {
			cp := *info
			s.paths[p] = &cp
			continue
		}
		dst.Count += info.Count
		dst.Leaf = dst.Leaf || info.Leaf
	}
}

// LeafNames returns the distinct final labels of all leaf paths, sorted.
// Schema matching uses these as the vocabulary of candidate field names.
func (s *Summary) LeafNames() []string {
	set := map[string]bool{}
	for p, info := range s.paths {
		if !info.Leaf {
			continue
		}
		segs := strings.Split(strings.TrimPrefix(p, "/"), "/")
		set[segs[len(segs)-1]] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ToNode renders the summary itself as an XML tree so it can be shipped to
// the mediator through the same channel as data.
func (s *Summary) ToNode() *Node {
	root := NewElem("summary")
	for _, info := range s.Paths() {
		e := NewElem("path").SetAttr("p", info.Path)
		if info.Leaf {
			e.SetAttr("leaf", "true")
		}
		root.Append(e)
	}
	return root
}

// SummaryFromNode parses the ToNode encoding back into a Summary.
func SummaryFromNode(n *Node) *Summary {
	s := NewSummary()
	for _, c := range n.ChildrenNamed("path") {
		p, _ := c.Attr("p")
		if p == "" {
			continue
		}
		leaf, _ := c.Attr("leaf")
		s.paths[p] = &PathInfo{Path: p, Count: 1, Leaf: leaf == "true"}
	}
	return s
}
