// Package xmltree implements the XML data model PRIVATE-IYE is built on.
//
// The paper (Section 3) chooses XML because "it provides much greater
// flexibility in the kinds of data that can be handled by our system",
// covering relational rows, hierarchical stores and structured files with
// one model. This package supplies that model: an ordered, labelled node
// tree with attributes and text, its wire codec (an append-only writer and
// a single-pass tokenizer for the grammar that writer emits, failing over
// to encoding/xml for everything else — DESIGN.md, "wire codec"),
// navigation primitives used by the PIQL evaluator, and the structural
// summaries ("DataGuides") from which the mediator builds its partial
// mediated schema (Section 5).
package xmltree

import "strings"

// Node is one element in an XML document tree. Text content is stored on
// the node itself (concatenation of its character data), which is the
// granularity at which privacy policies and preservation techniques apply.
//
// Attrs is nil until the first SetAttr: most nodes on the wire (rows,
// cells, PSI elements) carry no attributes, and an empty map per node was
// a tenth of the fan-out path's allocations. Reading a nil map (Attr,
// len, range, delete) is fine; writes must go through SetAttr, never
// n.Attrs[k] = v.
type Node struct {
	Name     string
	Attrs    map[string]string
	Text     string
	Children []*Node
	Parent   *Node
}

// NewElem returns a childless element node with the given name. Its Attrs
// map is nil until SetAttr allocates it.
func NewElem(name string) *Node {
	return &Node{Name: name}
}

// NewText returns an element node carrying text content, a convenience for
// leaf fields such as <dob>1971-03-05</dob>.
func NewText(name, text string) *Node {
	n := NewElem(name)
	n.Text = text
	return n
}

// Append adds children to n, fixing up their parent pointers, and returns n
// so construction can be chained.
func (n *Node) Append(children ...*Node) *Node {
	for _, c := range children {
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	return n
}

// SetAttr sets an attribute and returns n for chaining.
func (n *Node) SetAttr(key, value string) *Node {
	if n.Attrs == nil {
		n.Attrs = map[string]string{}
	}
	n.Attrs[key] = value
	return n
}

// Attr returns the attribute value and whether it exists.
func (n *Node) Attr(key string) (string, bool) {
	v, ok := n.Attrs[key]
	return v, ok
}

// Child returns the first direct child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the first direct child with the given
// name, or "" if absent. It is the accessor used throughout the mediator
// for record fields.
func (n *Node) ChildText(name string) string {
	if c := n.Child(name); c != nil {
		return c.Text
	}
	return ""
}

// ChildrenNamed returns all direct children with the given name, in one
// allocation however many there are (none when there are none).
func (n *Node) ChildrenNamed(name string) []*Node {
	k := 0
	for _, c := range n.Children {
		if c.Name == name {
			k++
		}
	}
	if k == 0 {
		return nil
	}
	out := make([]*Node, 0, k)
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits n and every descendant in document order. Returning false
// from visit prunes the subtree below the visited node.
func (n *Node) Walk(visit func(*Node) bool) {
	if n == nil {
		return
	}
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Descendants returns every node in the subtree rooted at n (including n)
// in document order.
func (n *Node) Descendants() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		out = append(out, m)
		return true
	})
	return out
}

// Path returns the absolute label path of n from its document root, e.g.
// "/patients/patient/dob".
func (n *Node) Path() string {
	if n == nil {
		return ""
	}
	var labels []string
	for m := n; m != nil; m = m.Parent {
		labels = append(labels, m.Name)
	}
	var b strings.Builder
	for i := len(labels) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(labels[i])
	}
	return b.String()
}

// Clone deep-copies the subtree rooted at n. The copy's Parent is nil. The
// mediator clones results before applying preservation techniques so the
// source's canonical data is never mutated.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			c.Attrs[k] = v
		}
	}
	for _, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Remove detaches n from its parent. It is how suppression-based
// preservation techniques drop sensitive elements.
func (n *Node) Remove() {
	p := n.Parent
	if p == nil {
		return
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = nil
}
