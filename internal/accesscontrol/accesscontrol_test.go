package accesscontrol

import "testing"

func TestRBACBasic(t *testing.T) {
	r := NewRBAC()
	if err := r.Grant("nurse", Read, "//patient/name"); err != nil {
		t.Fatal(err)
	}
	if err := r.Grant("physician", Read, "//patient//*"); err != nil {
		t.Fatal(err)
	}
	if err := r.Grant("physician", Write, "//patient/treatment"); err != nil {
		t.Fatal(err)
	}
	r.Assign("alice", "nurse")
	r.Assign("bob", "physician")

	if !r.Can("alice", Read, "/hospital/patient/name") {
		t.Error("nurse should read name")
	}
	if r.Can("alice", Read, "/hospital/patient/diagnosis") {
		t.Error("nurse should not read diagnosis")
	}
	if r.Can("alice", Write, "/hospital/patient/name") {
		t.Error("read grant must not imply write")
	}
	if !r.Can("bob", Read, "/hospital/patient/diagnosis") {
		t.Error("physician should read diagnosis")
	}
	if !r.Can("bob", Write, "/hospital/patient/treatment") {
		t.Error("physician should write treatment")
	}
	if r.Can("carol", Read, "/hospital/patient/name") {
		t.Error("unknown subject should be denied")
	}
}

func TestRBACHierarchy(t *testing.T) {
	r := NewRBAC()
	if err := r.Grant("staff", Read, "//roster"); err != nil {
		t.Fatal(err)
	}
	if err := r.Grant("nurse", Read, "//patient/name"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddInheritance("nurse", "staff"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddInheritance("physician", "nurse"); err != nil {
		t.Fatal(err)
	}
	r.Assign("bob", "physician")
	// physician -> nurse -> staff: transitive inheritance.
	if !r.Can("bob", Read, "/hospital/roster") {
		t.Error("physician should inherit staff permission transitively")
	}
	if !r.Can("bob", Read, "/hospital/patient/name") {
		t.Error("physician should inherit nurse permission")
	}
	// Junior does not gain senior's permissions.
	r.Assign("alice", "staff")
	if r.Can("alice", Read, "/hospital/patient/name") {
		t.Error("staff must not inherit upward")
	}
}

func TestRBACCycleRejected(t *testing.T) {
	r := NewRBAC()
	if err := r.AddInheritance("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddInheritance("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddInheritance("c", "a"); err == nil {
		t.Error("cycle should be rejected")
	}
	if err := r.AddInheritance("a", "a"); err == nil {
		t.Error("self-inheritance should be rejected")
	}
}

func TestRBACBadPattern(t *testing.T) {
	r := NewRBAC()
	if err := r.Grant("x", Read, "//"); err == nil {
		t.Error("bad pattern should fail")
	}
}

func TestRolesOfSorted(t *testing.T) {
	r := NewRBAC()
	r.Assign("alice", "zeta", "alpha")
	roles := r.RolesOf("alice")
	if len(roles) != 2 || roles[0] != "alpha" {
		t.Errorf("RolesOf = %v", roles)
	}
}

func TestMLSReadWrite(t *testing.T) {
	m := NewMLS()
	if err := m.Classify("//patient/diagnosis", Confidential); err != nil {
		t.Fatal(err)
	}
	if err := m.Classify("//patient/ssn", Secret); err != nil {
		t.Fatal(err)
	}
	m.SetClearance("alice", Internal)
	m.SetClearance("bob", Confidential)

	// No read up.
	if m.CanRead("alice", "/h/patient/diagnosis") {
		t.Error("internal clearance must not read confidential")
	}
	if !m.CanRead("bob", "/h/patient/diagnosis") {
		t.Error("confidential clearance should read confidential")
	}
	if m.CanRead("bob", "/h/patient/ssn") {
		t.Error("confidential must not read secret")
	}
	// Unclassified items are public: everyone reads.
	if !m.CanRead("alice", "/h/patient/name") {
		t.Error("public items readable by all")
	}
	// No write down.
	if m.CanWrite("bob", "/h/patient/name") {
		t.Error("confidential subject must not write public item")
	}
	if !m.CanWrite("alice", "/h/patient/diagnosis") {
		t.Error("internal subject may write up to confidential")
	}
	// Unknown subject is Public: reads public only.
	if m.CanRead("zz", "/h/patient/diagnosis") {
		t.Error("unknown subject should have public clearance")
	}
}

func TestMLSHighestClassificationWins(t *testing.T) {
	m := NewMLS()
	if err := m.Classify("//patient//*", Internal); err != nil {
		t.Fatal(err)
	}
	if err := m.Classify("//ssn", Secret); err != nil {
		t.Fatal(err)
	}
	if got := m.LevelOf("/h/patient/ssn"); got != Secret {
		t.Errorf("level = %v, want secret", got)
	}
	if got := m.LevelOf("/h/patient/name"); got != Internal {
		t.Errorf("level = %v, want internal", got)
	}
	if err := m.Classify("//", Secret); err == nil {
		t.Error("bad pattern should fail")
	}
}

func TestStoreCombines(t *testing.T) {
	s := NewStore()
	if err := s.RBAC.Grant("physician", Read, "//patient//*"); err != nil {
		t.Fatal(err)
	}
	s.RBAC.Assign("bob", "physician")
	if err := s.MLS.Classify("//patient/ssn", Secret); err != nil {
		t.Fatal(err)
	}
	s.MLS.SetClearance("bob", Confidential)

	if !s.Check("bob", Read, "/h/patient/diagnosis") {
		t.Error("RBAC+MLS should both pass for diagnosis")
	}
	// RBAC passes but MLS blocks.
	if s.Check("bob", Read, "/h/patient/ssn") {
		t.Error("MLS should block secret item")
	}
	// MLS passes but RBAC blocks.
	if s.Check("intruder", Read, "/h/patient/diagnosis") {
		t.Error("RBAC should block unassigned subject")
	}
	// Write path consults star property.
	if err := s.RBAC.Grant("physician", Write, "//patient/ssn"); err != nil {
		t.Fatal(err)
	}
	if !s.Check("bob", Write, "/h/patient/ssn") {
		t.Error("write up should be permitted by star property")
	}
}

func TestActionAndLevelStrings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("action names")
	}
	for l, want := range map[Level]string{
		Public: "public", Internal: "internal", Confidential: "confidential", Secret: "secret",
	} {
		if l.String() != want {
			t.Errorf("level %d = %q", int(l), l.String())
		}
	}
}

// classStore is a small store with two ways of reaching the same
// effective role set and two clearances.
func classStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for _, g := range []struct {
		role Role
		act  Action
		item string
	}{
		{"staff", Read, "//roster"},
		{"nurse", Read, "//patient/name"},
		{"nurse", Write, "//patient/notes"},
		{"physician", Read, "//patient//*"},
	} {
		if err := s.RBAC.Grant(g.role, g.act, g.item); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RBAC.AddInheritance("nurse", "staff"); err != nil {
		t.Fatal(err)
	}
	if err := s.MLS.Classify("//patient/diagnosis", Confidential); err != nil {
		t.Fatal(err)
	}
	s.RBAC.Assign("ann", "nurse")          // staff by inheritance
	s.RBAC.Assign("ben", "staff", "nurse") // staff by assignment too: same effective set
	s.RBAC.Assign("cat", "physician")
	s.RBAC.Assign("dan", "physician")
	s.MLS.SetClearance("dan", Secret)
	return s
}

// Two subjects of one class get the same Check everywhere: that is what
// lets a source share one plan between them.
func TestClassDeterminesCheck(t *testing.T) {
	s := classStore(t)
	if a, b := s.Class("ann"), s.Class("ben"); a != b {
		t.Fatalf("same effective roles and clearance, different classes: %q vs %q", a, b)
	}
	if a, c := s.Class("ann"), s.Class("cat"); a == c {
		t.Fatalf("different roles share class %q", a)
	}
	if c, d := s.Class("cat"), s.Class("dan"); c == d {
		t.Fatalf("different clearances share class %q", c)
	}
	if u, v := s.Class("nobody"), s.Class("no one else"); u != v {
		t.Fatalf("unknown subjects should share one class: %q vs %q", u, v)
	}
	subjects := []string{"ann", "ben", "cat", "dan", "nobody"}
	items := []string{"/h/roster", "/h/patient/name", "/h/patient/notes", "/h/patient/diagnosis", "/h/other"}
	for _, x := range subjects {
		for _, y := range subjects {
			if s.Class(x) != s.Class(y) {
				continue
			}
			for _, act := range []Action{Read, Write} {
				for _, item := range items {
					if s.Check(x, act, item) != s.Check(y, act, item) {
						t.Errorf("%s and %s share class %q but differ on %s %s", x, y, s.Class(x), act, item)
					}
				}
			}
		}
	}
	// Role names are free text: a name holding the separator must not
	// make two different role sets render alike.
	s.RBAC.Assign("eve", `a""b`)
	s.RBAC.Assign("fay", "a", "b")
	if s.Class("eve") == s.Class("fay") {
		t.Fatalf("role sets {a\"\"b} and {a, b} share class %q", s.Class("eve"))
	}
}

func TestEpochMovesOnEveryMutation(t *testing.T) {
	s := NewStore()
	last := s.Epoch()
	step := func(what string) {
		t.Helper()
		if e := s.Epoch(); e <= last {
			t.Fatalf("%s left the epoch at %d (was %d)", what, e, last)
		} else {
			last = e
		}
	}
	if err := s.RBAC.Grant("nurse", Read, "//name"); err != nil {
		t.Fatal(err)
	}
	step("Grant")
	s.RBAC.Assign("ann", "nurse")
	step("Assign")
	if err := s.RBAC.AddInheritance("nurse", "staff"); err != nil {
		t.Fatal(err)
	}
	step("AddInheritance")
	s.MLS.SetClearance("ann", Internal)
	step("SetClearance")
	if err := s.MLS.Classify("//name", Internal); err != nil {
		t.Fatal(err)
	}
	step("Classify")
	// Refused mutations change nothing and need not move it; reads never do.
	s.Check("ann", Read, "/p/name")
	s.Class("ann")
	if e := s.Epoch(); e != last {
		t.Fatalf("reads moved the epoch %d -> %d", last, e)
	}
}

func TestNilStoreClassAndEpoch(t *testing.T) {
	var s *Store
	if s.Class("anyone") != "" || s.Epoch() != 0 {
		t.Fatalf("nil store: class %q epoch %d, want \"\" and 0", s.Class("anyone"), s.Epoch())
	}
}
