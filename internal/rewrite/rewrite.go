// Package rewrite implements the Query Rewriter of Figure 2(a): it
// "examines the authorization rules (stored in Access Control), privacy
// policies and preferences (stored in Privacy Policy), and metadata
// corresponding to the requested data, and produces a query that will only
// retrieve the information that can be accessed by the requester as well
// as preserves the privacy of the data" (Section 4).
//
// The paper chooses rewrite-before-execute over execute-then-filter
// because the rewritten query "will operate on a smaller set of data in
// the database" — experiment E5 measures that choice. Where several
// rewritings exist, the rewriter keeps the one with minimum privacy loss
// that still satisfies the request: exact disclosure where granted,
// a weaker granted form (recorded in the item plan for the preservation
// stage) where not, and removal only as a last resort.
package rewrite

import (
	"fmt"
	"math"

	"privateiye/internal/accesscontrol"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/xmltree"
)

// Rewriter holds the stores the rewriting consults.
type Rewriter struct {
	// Policies are the applicable policies: the source policy plus any
	// data-subject preferences. All must allow a disclosure.
	Policies []*policy.Policy
	// Purposes is the purpose taxonomy.
	Purposes *policy.PurposeTree
	// Access is the classical access control layer; nil disables it.
	Access *accesscontrol.Store
	// Paths enumerates the source's concrete data paths (from its
	// structural summary), against which query patterns resolve.
	Paths []string
	// Resolver supplies approximate tag alternatives (schema matching):
	// when a pattern matches no concrete path, its final step is rewritten
	// through the resolver before policy evaluation, so a loose
	// //gender predicate is policy-checked as the source's real sex path.
	// Optional.
	Resolver func(name string) []string
}

// ItemPlan records, for one surviving return item, which concrete paths
// it touches, the strongest disclosure form every authority granted, and
// the tightest loss budget.
type ItemPlan struct {
	Item    piql.ReturnItem
	Paths   []string
	Form    policy.Form
	MaxLoss float64
}

// Dropped records a removed query element and why.
type Dropped struct {
	What   string // rendering of the element
	Reason string
}

// Outcome is the result of rewriting.
type Outcome struct {
	// Query is the rewritten query; nil when everything was denied.
	Query *piql.Query
	// Plans describe the surviving return items.
	Plans []ItemPlan
	// DroppedReturns and DroppedPredicates list what was removed.
	DroppedReturns    []Dropped
	DroppedPredicates []Dropped
	// Budget is the effective privacy-loss budget: the minimum of the
	// requester's MAXLOSS and every granted rule's budget.
	Budget float64
}

// FullyDenied reports whether nothing survived.
func (o *Outcome) FullyDenied() bool { return o.Query == nil }

// Rewrite rewrites q for the given requester. The query's PURPOSE clause
// drives policy decisions; its absence fails closed (policies see an
// unknown purpose).
func (r *Rewriter) Rewrite(q *piql.Query, requester string) (*Outcome, error) {
	if len(r.Policies) == 0 {
		return nil, fmt.Errorf("rewrite: no policies configured")
	}
	if r.Purposes == nil {
		return nil, fmt.Errorf("rewrite: no purpose taxonomy")
	}
	out := &Outcome{Budget: q.MaxLoss}

	var keptItems []piql.ReturnItem
	for _, ri := range q.Return {
		if ri.Path == nil { // COUNT(*): no data item is disclosed
			keptItems = append(keptItems, ri)
			out.Plans = append(out.Plans, ItemPlan{Item: ri, Form: policy.Aggregate, MaxLoss: 1})
			continue
		}
		wantForm := policy.Exact
		if ri.Agg != piql.AggNone {
			wantForm = policy.Aggregate
		}
		plan, reason := r.planItem(ri, q.Purpose, wantForm, requester)
		if plan == nil {
			out.DroppedReturns = append(out.DroppedReturns, Dropped{What: ri.Path.String(), Reason: reason})
			continue
		}
		keptItems = append(keptItems, ri)
		out.Plans = append(out.Plans, *plan)
		if plan.MaxLoss < out.Budget {
			out.Budget = plan.MaxLoss
		}
	}
	if len(keptItems) == 0 {
		return out, nil // fully denied
	}

	// Predicates: a predicate is an oracle on its item at Range
	// granularity; it needs a Range (or stronger) grant to stay.
	where, droppedPreds := r.rewriteCond(q.Where, q.Purpose, requester)
	out.DroppedPredicates = droppedPreds

	// GROUP BY paths disclose group labels: they need Aggregate grants.
	var groupBy []*xmltree.PathPattern
	for _, g := range q.GroupBy {
		allowed, reason := r.pathsAllowed(g, q.Purpose, policy.Aggregate, requester)
		if len(allowed) == 0 {
			out.DroppedReturns = append(out.DroppedReturns, Dropped{What: "GROUP BY " + g.String(), Reason: reason})
			continue
		}
		groupBy = append(groupBy, g)
	}

	out.Query = &piql.Query{
		For:       q.For,
		Where:     where,
		GroupBy:   groupBy,
		Return:    keptItems,
		OrderBy:   q.OrderBy,
		OrderDesc: q.OrderDesc,
		Limit:     q.Limit,
		Purpose:   q.Purpose,
		MaxLoss:   q.MaxLoss,
	}
	// An ORDER BY whose output column was dropped cannot survive.
	if out.Query.OrderBy != "" {
		found := false
		for _, ri := range keptItems {
			if ri.Name() == out.Query.OrderBy {
				found = true
			}
		}
		for _, g := range groupBy {
			if lastStepName(g) == out.Query.OrderBy {
				found = true
			}
		}
		if !found {
			out.DroppedReturns = append(out.DroppedReturns, Dropped{
				What:   "ORDER BY " + out.Query.OrderBy,
				Reason: "ordering column no longer in the output",
			})
			out.Query.OrderBy = ""
			out.Query.OrderDesc = false
		}
	}
	return out, nil
}

// planItem decides one return item: it must be allowed on every concrete
// path it touches, and the granted form must cover the requested one.
// When the exact request is refused but a weaker form is granted on all
// paths, the item survives with that weaker form recorded (the
// preservation stage enforces it).
func (r *Rewriter) planItem(ri piql.ReturnItem, purpose string, want policy.Form, requester string) (*ItemPlan, string) {
	paths, reason := r.pathsAllowed(ri.Path, purpose, want, requester)
	if len(paths) > 0 {
		loss, form := r.grantOn(paths, purpose, want)
		return &ItemPlan{Item: ri, Paths: paths, Form: form, MaxLoss: loss}, ""
	}
	// Try weaker forms in decreasing strength.
	for form := want - 1; form > policy.Suppressed; form-- {
		paths, _ := r.pathsAllowed(ri.Path, purpose, form, requester)
		if len(paths) > 0 {
			loss, granted := r.grantOn(paths, purpose, form)
			return &ItemPlan{Item: ri, Paths: paths, Form: granted, MaxLoss: loss}, ""
		}
	}
	return nil, reason
}

// pathsAllowed resolves a pattern to the concrete paths on which every
// authority permits the disclosure at the given form. If the pattern
// matches nothing it is treated as matching a virtual path equal to its
// own source text (the source may resolve tags approximately later), and
// policy applies to that.
func (r *Rewriter) pathsAllowed(pat *xmltree.PathPattern, purpose string, form policy.Form, requester string) ([]string, string) {
	matchAll := func(pt *xmltree.PathPattern) []string {
		var out []string
		for _, p := range r.Paths {
			if pt.Matches(p) {
				out = append(out, p)
			}
		}
		return out
	}
	concrete := matchAll(pat)
	// Approximate tag matching: rewrite the final step through the
	// resolver and take the first alternative that matches real paths.
	if len(concrete) == 0 && r.Resolver != nil && pat.LastStep() != "*" {
		for _, alt := range r.Resolver(pat.LastStep()) {
			altPat, err := pat.WithLastStep(alt)
			if err != nil {
				continue
			}
			if found := matchAll(altPat); len(found) > 0 {
				concrete = found
				break
			}
		}
	}
	virtual := false
	if len(concrete) == 0 {
		concrete = []string{pat.String()}
		virtual = true
	}
	var allowed []string
	reason := "no matching data"
	for _, p := range concrete {
		req := policy.Request{ItemPath: p, Purpose: purpose, Form: form}
		decisions := make([]policy.Decision, 0, len(r.Policies))
		for _, pol := range r.Policies {
			decisions = append(decisions, pol.Decide(req, r.Purposes))
		}
		d := policy.Combine(decisions...)
		if !d.Allowed {
			reason = d.Reason
			continue
		}
		if r.Access != nil && !virtual && !r.Access.Check(requester, accesscontrol.Read, p) {
			// No subject name: the outcome may be served to any
			// requester of the same access class (source plan cache).
			reason = "access control denies read on " + p
			continue
		}
		allowed = append(allowed, p)
	}
	return allowed, reason
}

// grantOn recomputes the combined budget and form over allowed paths.
func (r *Rewriter) grantOn(paths []string, purpose string, form policy.Form) (float64, policy.Form) {
	budget := math.MaxFloat64
	granted := policy.Exact
	for _, p := range paths {
		req := policy.Request{ItemPath: p, Purpose: purpose, Form: form}
		decisions := make([]policy.Decision, 0, len(r.Policies))
		for _, pol := range r.Policies {
			decisions = append(decisions, pol.Decide(req, r.Purposes))
		}
		d := policy.Combine(decisions...)
		if d.MaxLoss < budget {
			budget = d.MaxLoss
		}
		if d.Form < granted {
			granted = d.Form
		}
	}
	if budget == math.MaxFloat64 {
		budget = 1
	}
	return budget, granted
}

// rewriteCond prunes predicates whose item lacks a Range grant. AND keeps
// surviving conjuncts (the query only widens, never returns forbidden
// rows); an OR or NOT containing a denied predicate is dropped whole,
// because partial evaluation would change which rows qualify unsoundly.
func (r *Rewriter) rewriteCond(c piql.Cond, purpose, requester string) (piql.Cond, []Dropped) {
	var dropped []Dropped
	var walk func(c piql.Cond) piql.Cond
	predicateAllowed := func(pat *xmltree.PathPattern, rendering string) bool {
		allowed, reason := r.pathsAllowed(pat, purpose, policy.Range, requester)
		if len(allowed) == 0 {
			dropped = append(dropped, Dropped{What: rendering, Reason: reason})
			return false
		}
		return true
	}
	walk = func(c piql.Cond) piql.Cond {
		switch v := c.(type) {
		case nil:
			return nil
		case *piql.Comparison:
			if predicateAllowed(v.Path, v.String()) {
				return v
			}
			return nil
		case *piql.Contains:
			if predicateAllowed(v.Path, v.String()) {
				return v
			}
			return nil
		case *piql.Exists:
			if predicateAllowed(v.Path, v.String()) {
				return v
			}
			return nil
		case *piql.And:
			l, rr := walk(v.L), walk(v.R)
			switch {
			case l == nil && rr == nil:
				return nil
			case l == nil:
				return rr
			case rr == nil:
				return l
			default:
				return &piql.And{L: l, R: rr}
			}
		case *piql.Or:
			l, rr := walk(v.L), walk(v.R)
			if l == nil || rr == nil {
				if l != nil || rr != nil {
					dropped = append(dropped, Dropped{What: v.String(), Reason: "disjunction with denied arm"})
				}
				return nil
			}
			return &piql.Or{L: l, R: rr}
		case *piql.Not:
			inner := walk(v.C)
			if inner == nil {
				return nil
			}
			return &piql.Not{C: inner}
		}
		return nil
	}
	return walk(c), dropped
}

func lastStepName(p *xmltree.PathPattern) string {
	return p.LastStep()
}
