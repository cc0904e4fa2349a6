package rewrite

import (
	"strings"
	"testing"

	"privateiye/internal/accesscontrol"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
)

var sourcePaths = []string{
	"/hospital/patient/name",
	"/hospital/patient/dob",
	"/hospital/patient/age",
	"/hospital/patient/zip",
	"/hospital/patient/diagnosis",
	"/hospital/patient/ssn",
}

func hospitalRewriter(t *testing.T) *Rewriter {
	t.Helper()
	pol, err := policy.NewPolicy("hospital", policy.Deny,
		policy.Rule{Item: "//patient/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.8},
		policy.Rule{Item: "//patient/zip", Purpose: "any", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.6},
		policy.Rule{Item: "//patient/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.3},
		policy.Rule{Item: "//patient/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patient/ssn", Purpose: "any", Effect: policy.Deny},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &Rewriter{
		Policies: []*policy.Policy{pol},
		Purposes: policy.DefaultPurposes(),
		Paths:    sourcePaths,
	}
}

func TestRewriteAllowsGrantedItems(t *testing.T) {
	r := hospitalRewriter(t)
	q := piql.MustParse("FOR //patient WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.5")
	out, err := r.Rewrite(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Fatal("age should be allowed")
	}
	if len(out.Plans) != 1 || out.Plans[0].Form != policy.Exact {
		t.Errorf("plans = %+v", out.Plans)
	}
	// Budget = min(query 0.5, rule 0.8).
	if out.Budget != 0.5 {
		t.Errorf("budget = %v, want 0.5", out.Budget)
	}
	if len(out.DroppedReturns) != 0 || len(out.DroppedPredicates) != 0 {
		t.Errorf("nothing should be dropped: %+v", out)
	}
}

func TestRewriteDropsDeniedReturn(t *testing.T) {
	r := hospitalRewriter(t)
	// ssn denied always; age fine.
	q := piql.MustParse("FOR //patient RETURN //age, //ssn PURPOSE treatment")
	out, err := r.Rewrite(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Fatal("partial query should survive")
	}
	if len(out.Query.Return) != 1 || out.Query.Return[0].Path.String() != "//age" {
		t.Errorf("rewritten returns: %v", out.Query.String())
	}
	if len(out.DroppedReturns) != 1 || !strings.Contains(out.DroppedReturns[0].Reason, "deny") {
		t.Errorf("dropped = %+v", out.DroppedReturns)
	}
}

func TestRewriteFullyDenied(t *testing.T) {
	r := hospitalRewriter(t)
	q := piql.MustParse("FOR //patient RETURN //ssn PURPOSE treatment")
	out, err := r.Rewrite(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !out.FullyDenied() {
		t.Fatal("ssn-only query must be fully denied")
	}
}

func TestRewritePurposeSensitivity(t *testing.T) {
	r := hospitalRewriter(t)
	// name allowed for treatment, not research.
	forTreatment := piql.MustParse("FOR //patient RETURN //name PURPOSE treatment")
	out, _ := r.Rewrite(forTreatment, "alice")
	if out.FullyDenied() {
		t.Error("name for treatment should pass")
	}
	forResearch := piql.MustParse("FOR //patient RETURN //name PURPOSE research")
	out, _ = r.Rewrite(forResearch, "alice")
	if !out.FullyDenied() {
		t.Error("name for research should be denied")
	}
	// Missing purpose fails closed.
	noPurpose := piql.MustParse("FOR //patient RETURN //name")
	out, _ = r.Rewrite(noPurpose, "alice")
	if !out.FullyDenied() {
		t.Error("unstated purpose should fail closed")
	}
}

func TestRewriteWeakerFormSurvives(t *testing.T) {
	r := hospitalRewriter(t)
	// Exact zip requested; policy grants only Range. The item survives
	// with Form=Range recorded for the preservation stage.
	q := piql.MustParse("FOR //patient RETURN //zip PURPOSE treatment")
	out, err := r.Rewrite(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Fatal("zip should survive at range form")
	}
	if out.Plans[0].Form != policy.Range {
		t.Errorf("granted form = %v, want range", out.Plans[0].Form)
	}
	if out.Budget != 0.6 {
		t.Errorf("budget = %v, want 0.6", out.Budget)
	}
}

func TestRewriteAggregateQueryNeedsOnlyAggregateGrant(t *testing.T) {
	r := hospitalRewriter(t)
	// diagnosis grants Aggregate for research: AVG(...) over it is fine,
	// plain return is not.
	agg := piql.MustParse("FOR //patient GROUP BY //age RETURN COUNT(//diagnosis) AS n PURPOSE research")
	out, err := r.Rewrite(agg, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Fatal("aggregate over diagnosis should pass for research")
	}
	plain := piql.MustParse("FOR //patient RETURN //diagnosis PURPOSE research")
	out, _ = r.Rewrite(plain, "alice")
	// Exact denied; weaker forms: range? no rule grants range on
	// diagnosis... Aggregate is granted, which is weaker than Range, so
	// the item survives with Form=Aggregate.
	if out.FullyDenied() {
		t.Fatal("diagnosis should survive at aggregate form")
	}
	if out.Plans[0].Form != policy.Aggregate {
		t.Errorf("granted form = %v, want aggregate", out.Plans[0].Form)
	}
}

func TestRewritePredicatePruning(t *testing.T) {
	r := hospitalRewriter(t)
	// Predicate on ssn (denied) inside AND: pruned, age predicate kept.
	q := piql.MustParse("FOR //patient WHERE //age > 40 AND //ssn = '123' RETURN //age PURPOSE treatment")
	out, err := r.Rewrite(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if out.Query.Where == nil {
		t.Fatal("age predicate should survive")
	}
	if s := out.Query.Where.String(); strings.Contains(s, "ssn") {
		t.Errorf("ssn predicate survived: %s", s)
	}
	if len(out.DroppedPredicates) != 1 {
		t.Errorf("dropped predicates = %+v", out.DroppedPredicates)
	}

	// Denied arm inside OR drops the whole OR.
	q = piql.MustParse("FOR //patient WHERE //age > 40 OR //ssn = '123' RETURN //age PURPOSE treatment")
	out, _ = r.Rewrite(q, "alice")
	if out.Query.Where != nil {
		t.Errorf("OR with denied arm should vanish: %v", out.Query.Where)
	}

	// Predicate on diagnosis: policy grants only Aggregate, predicates
	// need Range -> pruned.
	q = piql.MustParse("FOR //patient WHERE //diagnosis = 'diabetes' RETURN //age PURPOSE research")
	out, _ = r.Rewrite(q, "alice")
	if out.Query.Where != nil {
		t.Error("diagnosis predicate should be pruned at aggregate grant")
	}
}

func TestRewriteGroupByPruning(t *testing.T) {
	r := hospitalRewriter(t)
	q := piql.MustParse("FOR //patient GROUP BY //ssn RETURN COUNT(*) AS n PURPOSE treatment")
	out, err := r.Rewrite(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Query.GroupBy) != 0 {
		t.Error("ssn group-by should be pruned")
	}
}

func TestRewriteCountStarAlwaysSurvives(t *testing.T) {
	r := hospitalRewriter(t)
	q := piql.MustParse("FOR //patient RETURN COUNT(*) AS n PURPOSE research")
	out, err := r.Rewrite(q, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Fatal("COUNT(*) should survive")
	}
}

func TestRewriteWithAccessControl(t *testing.T) {
	r := hospitalRewriter(t)
	store := accesscontrol.NewStore()
	if err := store.RBAC.Grant("researcher", accesscontrol.Read, "//patient/age"); err != nil {
		t.Fatal(err)
	}
	store.RBAC.Assign("alice", "researcher")
	r.Access = store
	// Alice can read age (policy + RBAC agree).
	q := piql.MustParse("FOR //patient RETURN //age PURPOSE research")
	out, _ := r.Rewrite(q, "alice")
	if out.FullyDenied() {
		t.Error("alice should read age")
	}
	// Bob has no role: RBAC blocks even though policy allows.
	out, _ = r.Rewrite(q, "bob")
	if !out.FullyDenied() {
		t.Error("bob should be blocked by RBAC")
	}
	// The reason ships in <dropped reason=…> and the outcome may be
	// shared by every requester of bob's access class: it names the
	// item, never the subject.
	if len(out.DroppedReturns) != 1 || !strings.Contains(out.DroppedReturns[0].Reason, "access control denies read on /") ||
		strings.Contains(out.DroppedReturns[0].Reason, "bob") {
		t.Errorf("dropped = %+v, want one access-control reason without the subject's name", out.DroppedReturns)
	}
	// MLS: classify age secret; alice (public clearance) blocked.
	if err := store.MLS.Classify("//patient/age", accesscontrol.Secret); err != nil {
		t.Fatal(err)
	}
	out, _ = r.Rewrite(q, "alice")
	if !out.FullyDenied() {
		t.Error("MLS should block unclassified alice from secret age")
	}
}

func TestRewriteVirtualPathPolicyStillApplies(t *testing.T) {
	// A pattern matching no concrete path (loose tag the source will
	// resolve later) is still policy-checked against its own rendering.
	pol, err := policy.NewPolicy("s", policy.Deny,
		policy.Rule{Item: "//dateOfBirth", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := &Rewriter{Policies: []*policy.Policy{pol}, Purposes: policy.DefaultPurposes(), Paths: sourcePaths}
	q := piql.MustParse("FOR //patient RETURN //dateOfBirth PURPOSE treatment")
	out, err := r.Rewrite(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Error("virtual path with explicit allow should survive")
	}
}

func TestRewriteConfigurationErrors(t *testing.T) {
	q := piql.MustParse("FOR //x RETURN //y PURPOSE any")
	r := &Rewriter{Purposes: policy.DefaultPurposes()}
	if _, err := r.Rewrite(q, "a"); err == nil {
		t.Error("no policies should error")
	}
	pol, _ := policy.NewPolicy("s", policy.Allow)
	r = &Rewriter{Policies: []*policy.Policy{pol}}
	if _, err := r.Rewrite(q, "a"); err == nil {
		t.Error("no purpose taxonomy should error")
	}
}

func TestRewriteUserPreferenceIntersectsSourcePolicy(t *testing.T) {
	source, _ := policy.NewPolicy("source", policy.Deny,
		policy.Rule{Item: "//patient/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.8},
	)
	subject, _ := policy.NewPolicy("subject-42", policy.Deny,
		policy.Rule{Item: "//patient/age", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.2},
	)
	r := &Rewriter{
		Policies: []*policy.Policy{source, subject},
		Purposes: policy.DefaultPurposes(),
		Paths:    sourcePaths,
	}
	// For research: both allow; form is the weaker (Range), budget the
	// smaller (0.2).
	q := piql.MustParse("FOR //patient RETURN //age PURPOSE research MAXLOSS 0.9")
	out, err := r.Rewrite(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Fatal("both policies allow at range")
	}
	if out.Plans[0].Form != policy.Range || out.Budget != 0.2 {
		t.Errorf("combined grant: form %v budget %v", out.Plans[0].Form, out.Budget)
	}
	// For treatment: subject preference doesn't cover -> denied.
	q = piql.MustParse("FOR //patient RETURN //age PURPOSE treatment")
	out, _ = r.Rewrite(q, "x")
	if !out.FullyDenied() {
		t.Error("subject preference should veto treatment")
	}
}

func TestRewriteResolverMapsLooseTags(t *testing.T) {
	pol, _ := policy.NewPolicy("s", policy.Deny,
		policy.Rule{Item: "//patient/dob", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.7},
	)
	r := &Rewriter{
		Policies: []*policy.Policy{pol},
		Purposes: policy.DefaultPurposes(),
		Paths:    sourcePaths,
		Resolver: func(name string) []string {
			if name == "dateOfBirth" {
				return []string{"dob"}
			}
			return nil
		},
	}
	// Loose //dateOfBirth resolves to the concrete dob path, whose policy
	// allows exact disclosure.
	q := piql.MustParse("FOR //patient RETURN //dateOfBirth PURPOSE treatment")
	out, err := r.Rewrite(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	if out.FullyDenied() {
		t.Fatal("resolved loose tag should be allowed")
	}
	if len(out.Plans[0].Paths) != 1 || out.Plans[0].Paths[0] != "/hospital/patient/dob" {
		t.Errorf("resolved paths = %v", out.Plans[0].Paths)
	}
	// Without the resolver the same query falls to the virtual path and
	// default-deny.
	r.Resolver = nil
	out, _ = r.Rewrite(q, "x")
	if !out.FullyDenied() {
		t.Error("unresolved loose tag should fail closed")
	}
}

func TestRewriteCarriesOrderByAndLimit(t *testing.T) {
	r := hospitalRewriter(t)
	q := piql.MustParse("FOR //patient RETURN //age ORDER BY age DESC LIMIT 3 PURPOSE treatment")
	out, err := r.Rewrite(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	if out.Query.OrderBy != "age" || !out.Query.OrderDesc || out.Query.Limit != 3 {
		t.Errorf("clauses lost: %q %v %d", out.Query.OrderBy, out.Query.OrderDesc, out.Query.Limit)
	}
	// Ordering on a dropped column is removed (with a record), not left
	// dangling.
	q = piql.MustParse("FOR //patient RETURN //age, //ssn ORDER BY ssn PURPOSE treatment")
	out, err = r.Rewrite(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	if out.Query.OrderBy != "" {
		t.Errorf("dangling ORDER BY %q", out.Query.OrderBy)
	}
	found := false
	for _, d := range out.DroppedReturns {
		if strings.Contains(d.What, "ORDER BY") {
			found = true
		}
	}
	if !found {
		t.Errorf("dropped ORDER BY not recorded: %+v", out.DroppedReturns)
	}
}
