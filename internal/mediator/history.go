package mediator

import (
	"encoding/binary"
	"slices"
)

// histRecord is one history entry as the mediator holds it: ids into the
// store's tables and the clock, 24 bytes with no pointer in them.
type histRecord struct {
	req, query, sources, denied uint32
	clock                       int64
}

// history is the Query History store, guarded by Mediator.mu: append-only
// records and tables that hold each requester, query text and source list
// once. Interned strings are kept as given, since none is a view into a
// parsed body (a header, the parse cache's canonical text, decoded JSON,
// owned cells). A list is copied when first seen, so no caller's slice is
// kept; nil and empty lists keep distinct ids, as the WAL writes null for
// one and [] for the other.
type history struct {
	recs        []histRecord
	reqs, texts []string // by id
	lists       [][]string

	reqID, textID map[string]uint32 // each string's id in reqs, texts
	listID        map[string]uint32 // keyed by internList's encoding,
	key           []byte            // built here, so a hit allocates nothing
}

func newHistory() *history {
	return &history{reqID: map[string]uint32{}, textID: map[string]uint32{}, listID: map[string]uint32{}}
}

// add is the only writer of the history short of a snapshot install:
// live and recovered entries alike (see Mediator.apply).
func (h *history) add(e HistoryEntry) {
	h.recs = append(h.recs, histRecord{
		req: intern(h.reqID, &h.reqs, e.Requester), query: intern(h.textID, &h.texts, e.Query),
		sources: h.internList(e.Sources), denied: h.internList(e.Denied), clock: e.Clock,
	})
}

func intern(ids map[string]uint32, table *[]string, s string) uint32 {
	id, ok := ids[s]
	if !ok {
		id = uint32(len(*table))
		*table = append(*table, s)
		ids[s] = id
	}
	return id
}

// internList keys a list by its length-prefixed names after a marker
// byte that only a non-nil list has.
func (h *history) internList(l []string) uint32 {
	h.key = h.key[:0]
	if l != nil {
		h.key = append(h.key, 1)
		for _, s := range l {
			h.key = append(binary.AppendUvarint(h.key, uint64(len(s))), s...)
		}
	}
	id, ok := h.listID[string(h.key)]
	if !ok {
		id = uint32(len(h.lists))
		h.lists = append(h.lists, slices.Clone(l))
		h.listID[string(h.key)] = id
	}
	return id
}

// appendTo appends the []HistoryEntry the records stand for as
// encoding/json writes it, each entry through the WAL's entry writer with
// the tables' own lists, so a snapshot copies no entry.
func (h *history) appendTo(b []byte) []byte {
	if h.recs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, r := range h.recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendHistoryEntry(b, &HistoryEntry{h.reqs[r.req], h.texts[r.query], h.lists[r.sources], h.lists[r.denied], r.clock})
	}
	return append(b, ']')
}
