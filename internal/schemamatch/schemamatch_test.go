package schemamatch

import (
	"fmt"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"dateOfBirth":   "dateofbirth",
		"date_of_birth": "dateofbirth",
		"Date-Of-Birth": "dateofbirth",
		"zip code":      "zipcode",
		"DOB":           "dob",
		"ssn":           "ssn",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNameSimilarity(t *testing.T) {
	m := NewMatcher()
	// Synonyms are perfect matches.
	for _, pair := range [][2]string{
		{"dob", "dateOfBirth"},
		{"dateOfBirth", "dob"},         // both directions
		{"birthDate", "date_of_birth"}, // siblings under the same key
		{"sex", "gender"},
		{"diagnosis", "dx"},
	} {
		if got := m.NameSimilarity(pair[0], pair[1]); got != 1 {
			t.Errorf("synonym %v scored %v", pair, got)
		}
	}
	// Trigram similarity ranks related above unrelated.
	rel := m.NameSimilarity("patientName", "name")
	unrel := m.NameSimilarity("patientName", "zipcode")
	if rel <= unrel {
		t.Errorf("related %v <= unrelated %v", rel, unrel)
	}
	if m.NameSimilarity("", "x") != 0 {
		t.Error("empty name should score 0")
	}
	if m.NameSimilarity("exactsame", "exactsame") != 1 {
		t.Error("identical should score 1")
	}
}

func TestProfileValues(t *testing.T) {
	p := ProfileValues("age", []string{"54", "45", "35", "45"})
	if p.Samples != 4 {
		t.Errorf("samples = %d", p.Samples)
	}
	if p.NumericFrac != 1 {
		t.Errorf("numeric frac = %v", p.NumericFrac)
	}
	if p.DistinctFrac != 0.75 {
		t.Errorf("distinct frac = %v", p.DistinctFrac)
	}
	if p.AvgLen != 2 {
		t.Errorf("avg len = %v", p.AvgLen)
	}
	empty := ProfileValues("x", nil)
	if empty.Samples != 0 || empty.AvgLen != 0 {
		t.Errorf("empty profile: %+v", empty)
	}
}

func TestMatchUsesInstanceEvidence(t *testing.T) {
	m := NewMatcher()
	// Two left fields with uninformative names; profiles disambiguate.
	left := []FieldProfile{
		ProfileValues("field1", []string{"75.3", "62.1", "81.0"}),
		ProfileValues("field2", []string{"Alice Ang", "Bob Baker", "Cara Diaz"}),
	}
	right := []FieldProfile{
		ProfileValues("rate", []string{"70.2", "55.9", "90.4"}),
		ProfileValues("patientName", []string{"Dana Evans", "Erin Fox", "Gil Ham"}),
	}
	m.Threshold = 0.3 // names are useless here; let instances drive
	matches := m.Match(left, right)
	got := map[string]string{}
	for _, c := range matches {
		got[c.Left] = c.Right
	}
	if got["field1"] != "rate" {
		t.Errorf("numeric field matched %q, want rate (matches %v)", got["field1"], matches)
	}
	if got["field2"] != "patientName" {
		t.Errorf("name field matched %q, want patientName", got["field2"])
	}
}

func TestMatchClinicalSchemas(t *testing.T) {
	m := NewMatcher()
	left := []FieldProfile{
		{Name: "dob"}, {Name: "name"}, {Name: "zip"}, {Name: "diagnosis"},
	}
	right := []FieldProfile{
		{Name: "dateOfBirth"}, {Name: "patient_name"}, {Name: "zipCode"}, {Name: "dx"}, {Name: "unrelated"},
	}
	matches := m.Match(left, right)
	want := map[string]string{
		"dob":       "dateOfBirth",
		"name":      "patient_name",
		"zip":       "zipCode",
		"diagnosis": "dx",
	}
	got := map[string]string{}
	for _, c := range matches {
		got[c.Left] = c.Right
	}
	for l, r := range want {
		if got[l] != r {
			t.Errorf("%s matched %q, want %q", l, got[l], r)
		}
	}
	// One-to-one: no right field matched twice.
	seen := map[string]bool{}
	for _, c := range matches {
		if seen[c.Right] {
			t.Errorf("right field %q matched twice", c.Right)
		}
		seen[c.Right] = true
	}
}

func TestResolverFor(t *testing.T) {
	m := NewMatcher()
	resolver := m.ResolverFor([]string{"dob", "name", "zip", "diagnosis"})
	alts := resolver("dateOfBirth")
	if len(alts) == 0 || alts[0] != "dob" {
		t.Errorf("resolver(dateOfBirth) = %v, want dob first", alts)
	}
	if alts := resolver("completely-unrelated-xyz"); len(alts) != 0 {
		t.Errorf("unrelated tag resolved to %v", alts)
	}
}

func TestHashVocabularyAndMatchHashed(t *testing.T) {
	salt := []byte("mediation-salt")
	left := HashVocabulary(salt, []string{"dob", "name", "secretField"})
	right := HashVocabulary(salt, []string{"DOB", "diagnosis", "name"})
	// Normalized equality: dob~DOB and name~name match; nothing else.
	pairs := MatchHashed(left, right)
	if len(pairs) != 2 {
		t.Fatalf("hashed matches = %v", pairs)
	}
	found := map[[2]int]bool{}
	for _, p := range pairs {
		found[p] = true
	}
	if !found[[2]int{0, 0}] || !found[[2]int{1, 2}] {
		t.Errorf("pairs = %v", pairs)
	}
	// Different salt: nothing matches (no cross-org dictionary attack).
	other := HashVocabulary([]byte("other"), []string{"dob"})
	if got := MatchHashed(other, right); len(got) != 0 {
		t.Errorf("different salts matched: %v", got)
	}
	// Hashes hide the name.
	if left[2] == "secretField" || len(left[2]) != 24 {
		t.Errorf("hash leaks or has wrong size: %q", left[2])
	}
}

func TestPrivateModeLosesFuzzyMatches(t *testing.T) {
	// E14's core claim in miniature: plaintext matching finds
	// dob~dateOfBirth, hashed matching cannot.
	m := NewMatcher()
	plain := m.Match(
		[]FieldProfile{{Name: "dob"}},
		[]FieldProfile{{Name: "dateOfBirth"}},
	)
	if len(plain) != 1 {
		t.Fatalf("plaintext should match: %v", plain)
	}
	salt := []byte("s")
	hashed := MatchHashed(
		HashVocabulary(salt, []string{"dob"}),
		HashVocabulary(salt, []string{"dateOfBirth"}),
	)
	if len(hashed) != 0 {
		t.Errorf("hashed mode should not fuzzy-match: %v", hashed)
	}
}

func TestMatchDeterminism(t *testing.T) {
	m := NewMatcher()
	var left, right []FieldProfile
	for i := 0; i < 10; i++ {
		left = append(left, FieldProfile{Name: fmt.Sprintf("field%d", i)})
		right = append(right, FieldProfile{Name: fmt.Sprintf("field%d", i)})
	}
	a := m.Match(left, right)
	b := m.Match(left, right)
	if len(a) != len(b) {
		t.Fatal("nondeterministic match count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic match order")
		}
	}
}

func TestProfilesWireRoundTrip(t *testing.T) {
	ps := []FieldProfile{
		ProfileValues("age", []string{"54", "45"}),
		ProfileValues("name", []string{"Ana", "Ben", "Ana"}),
	}
	back, err := ProfilesFromNode(ProfilesToNode(ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip count = %d", len(back))
	}
	for i := range ps {
		if back[i] != ps[i] {
			t.Errorf("profile %d = %+v, want %+v", i, back[i], ps[i])
		}
	}
	// Error paths.
	n := ProfilesToNode(ps)
	n.Name = "x"
	if _, err := ProfilesFromNode(n); err == nil {
		t.Error("wrong root should fail")
	}
	n.Name = "profiles"
	n.Children[0].SetAttr("name", "")
	if _, err := ProfilesFromNode(n); err == nil {
		t.Error("missing name should fail")
	}
	n.Children[0].SetAttr("name", "age")
	n.Children[0].SetAttr("avglen", "zz")
	if _, err := ProfilesFromNode(n); err == nil {
		t.Error("bad number should fail")
	}
}
