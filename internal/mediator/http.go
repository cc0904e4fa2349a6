package mediator

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// IntegratedToNode renders an integration result for the wire:
//
//	<integrated duplicates="3" loss="0.12" warehouse="false">
//	  <answered>hospitalA</answered>
//	  <denied source="labB">…reason…</denied>
//	  <result>…</result>
//	</integrated>
//
// The denials are written in source-name order, so an answer renders to
// the same bytes every time.
func IntegratedToNode(in *Integrated) *xmltree.Node {
	root := xmltree.NewElem("integrated").
		SetAttr("duplicates", strconv.Itoa(in.Duplicates)).
		SetAttr("loss", strconv.FormatFloat(in.AggregatedLoss, 'g', -1, 64)).
		SetAttr("warehouse", strconv.FormatBool(in.FromWarehouse))
	for _, s := range in.Answered {
		root.Append(xmltree.NewText("answered", s))
	}
	for _, src := range sortedKeys(in.Denied) {
		root.Append(xmltree.NewText("denied", in.Denied[src]).SetAttr("source", src))
	}
	root.Append(in.Result.ToNode())
	return root
}

// IntegratedFromNode parses IntegratedToNode output, fail-closed as
// parseAnswer reads a source's estloss: a duplicates, loss or warehouse
// attribute that is missing or unreadable refuses the answer rather than
// reading as 0 or false. So does a stale mark, which a mediator of an
// older build put on a past-TTL warehouse answer served under overload:
// it must not be shown as fresh.
func IntegratedFromNode(n *xmltree.Node) (*Integrated, error) {
	if n.Name != "integrated" {
		return nil, fmt.Errorf("mediator: expected <integrated>, got <%s>", n.Name)
	}
	bad := func(name string) error {
		v, _ := n.Attr(name)
		return fmt.Errorf("mediator: integrated answer carries no usable %s (%s=%q)", name, name, v)
	}
	out := &Integrated{}
	var err error
	v, _ := n.Attr("duplicates")
	if out.Duplicates, err = strconv.Atoi(v); err != nil || out.Duplicates < 0 {
		return nil, bad("duplicates")
	}
	v, _ = n.Attr("loss")
	if out.AggregatedLoss, err = strconv.ParseFloat(v, 64); err != nil || math.IsNaN(out.AggregatedLoss) ||
		out.AggregatedLoss < 0 || out.AggregatedLoss > 1 {
		return nil, bad("loss")
	}
	v, _ = n.Attr("warehouse")
	if out.FromWarehouse, err = strconv.ParseBool(v); err != nil {
		return nil, bad("warehouse")
	}
	if v, ok := n.Attr("stale"); ok && v != "false" {
		return nil, fmt.Errorf("mediator: integrated answer is marked stale (stale=%q), not fresh", v)
	}
	for _, a := range n.ChildrenNamed("answered") {
		out.Answered = append(out.Answered, a.Text)
	}
	for _, d := range n.ChildrenNamed("denied") {
		src, _ := d.Attr("source")
		out.deny(src, d.Text)
	}
	resNode := n.Child("result")
	if resNode == nil {
		return nil, fmt.Errorf("mediator: integrated answer missing result")
	}
	res, err := piql.ResultFromNode(resNode, "")
	if err != nil {
		return nil, err
	}
	out.Result = res
	return out, nil
}

// NewHandler exposes the mediator over HTTP (cmd/piye-mediator).
func NewHandler(m *Mediator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		body, ok := source.ReadQueryBody(w, r)
		if !ok {
			return
		}
		requester := r.Header.Get("X-Requester")
		if requester == "" {
			http.Error(w, "mediator: missing X-Requester header", http.StatusBadRequest)
			return
		}
		in, err := m.QueryContext(r.Context(), string(body), requester)
		if err != nil {
			// Ownership refusals are 503, not 403: the query is fine, it
			// just reached the wrong shard — the router sends it to the
			// owning one.
			var no *NotOwnerError
			if errors.As(err, &no) {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		source.WriteNode(w, IntegratedToNode(in))
	})

	mux.HandleFunc("GET /schema", func(w http.ResponseWriter, r *http.Request) {
		source.WriteNode(w, m.MediatedSchema().ToNode())
	})

	// Anyone who can send a query can read this, so, as in /debug/trace,
	// requesters are pseudonyms and query literals are redacted.
	mux.HandleFunc("GET /history", func(w http.ResponseWriter, r *http.Request) {
		root := xmltree.NewElem("history")
		for _, e := range m.History() {
			item := xmltree.NewElem("entry").
				SetAttr("requester", m.cfg.Trace.Pseudonym(e.Requester)).
				SetAttr("clock", strconv.FormatInt(e.Clock, 10))
			item.Append(xmltree.NewText("query", piql.Redact(e.Query)))
			for _, s := range e.Sources {
				item.Append(xmltree.NewText("source", s))
			}
			root.Append(item)
		}
		source.WriteNode(w, root)
	})

	mux.HandleFunc("GET /correspondences", func(w http.ResponseWriter, r *http.Request) {
		root := xmltree.NewElem("correspondences")
		for _, c := range m.Correspondences() {
			root.Append(xmltree.NewElem("match").
				SetAttr("sourceA", c.SourceA).SetAttr("fieldA", c.FieldA).
				SetAttr("sourceB", c.SourceB).SetAttr("fieldB", c.FieldB).
				SetAttr("score", strconv.FormatFloat(c.Score, 'g', 3, 64)))
		}
		source.WriteNode(w, root)
	})

	mux.HandleFunc("POST /refresh", func(w http.ResponseWriter, r *http.Request) {
		if err := m.RefreshSchemaContext(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	// The membership view, when sharded.
	if m.shard != nil {
		mux.HandleFunc("GET /shard/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(m.ShardInfo())
		})
	}

	// Liveness/readiness: a constructed mediator has finished WAL replay,
	// so it is ready.
	obs.AttachHealth(mux, nil)

	// /metrics and /debug/trace, when the mediator was built with a
	// registry or tracer.
	obs.Attach(mux, m.cfg.Obs, m.cfg.Trace)

	return mux
}
