package xmltree

// Slab hands out Nodes and Children backing arrays carved from shared
// chunks, so a tree of n nodes costs O(n/chunk) allocations instead of
// two per node. Parse builds every tree from one; builders that know
// their shape up front (piql.Result.ToNode) size one exactly.
//
// A slab-built tree is one unit of memory: keeping any node alive keeps
// its chunk alive. That is no new retention — Parent pointers already
// make every node reach the whole tree — but it is why nothing
// long-lived (warehouse entries, history, ledger releases) may be a view
// into a tree or a row slab. A parsed tree's text is one unit too: every
// Text and attribute value is a substring of one string per document, so
// a kept cell keeps the document's whole text unless it is cloned; see
// DESIGN.md §15.
type Slab struct {
	nodes []Node  // unused tail of the current node chunk
	kids  []*Node // unused tail of the current child-pointer chunk
	// Size of the next chunk of each kind; doubles up to maxChunk.
	nodeChunk, kidChunk int
}

const (
	minChunk = 8
	maxChunk = 256
)

// NewSlab returns a slab whose first chunks hold exactly the given number
// of nodes and child pointers; building more than that falls back to
// chunked growth.
func NewSlab(nodes, children int) *Slab {
	return &Slab{
		nodes: make([]Node, nodes), nodeChunk: nodes,
		kids: make([]*Node, children), kidChunk: children,
	}
}

// Elem returns a childless element whose Children has room for the given
// number of Appends without reallocating.
func (s *Slab) Elem(name string, children int) *Node {
	n := s.node()
	n.Name = name
	if children > 0 {
		n.Children = s.kidSlice(children)
	}
	return n
}

func nextChunk(size int) int {
	return min(max(size, minChunk), maxChunk)
}

func (s *Slab) node() *Node {
	if len(s.nodes) == 0 {
		c := nextChunk(s.nodeChunk)
		s.nodes = make([]Node, c)
		s.nodeChunk = 2 * c
	}
	n := &s.nodes[0]
	s.nodes = s.nodes[1:]
	return n
}

// kidSlice returns an empty slice with capacity exactly k. The capacity
// is clipped so that appending a k+1th child reallocates instead of
// overwriting the next node's children.
func (s *Slab) kidSlice(k int) []*Node {
	if k > len(s.kids) {
		if k > maxChunk/2 {
			// A long child list gets its own array rather than
			// abandoning most of a chunk.
			return make([]*Node, 0, k)
		}
		c := max(nextChunk(s.kidChunk), k)
		s.kids = make([]*Node, c)
		s.kidChunk = 2 * c
	}
	out := s.kids[:0:k]
	s.kids = s.kids[k:]
	return out
}
