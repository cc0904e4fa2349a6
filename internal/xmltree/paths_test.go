package xmltree

import (
	"strings"
	"testing"
)

// mustCompile is CompilePattern for the tests' static patterns.
func mustCompile(t testing.TB, src string) *PathPattern {
	t.Helper()
	p, err := CompilePattern(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompilePatternErrors(t *testing.T) {
	for _, bad := range []string{"", "  ", "/a//", "//", "/a//{", "/"} {
		if _, err := CompilePattern(bad); err == nil {
			t.Errorf("CompilePattern(%q) should fail", bad)
		}
	}
}

type patternCase struct {
	pattern, path string
	want          bool
}

var (
	matchCases = []patternCase{
		{"/patients/patient/dob", "/patients/patient/dob", true},
		{"/patients/patient/dob", "/patients/patient/name", false},
		{"/patients/patient/dob", "/patients/patient", false},
		{"//dob", "/patients/patient/dob", true},
		{"//dob", "/dob", true},
		{"//patient//dob", "/patients/patient/dob", true},
		{"//patient//dob", "/patients/patient/records/dob", true},
		{"//patient//dob", "/patients/dob", false},
		{"/patients/*/dob", "/patients/patient/dob", true},
		{"/patients/*/dob", "/patients/x/dob", true},
		{"/patients/*/dob", "/patients/a/b/dob", false},
		{"//*", "/anything/at/all", true},
		{"dob", "/patients/patient/dob", true}, // bare-name shorthand
		{"/a", "/a", true},
		{"/a", "/a/b", false},
		{"//patient", "/patients/patient", true},
		{"//patient//dob", "/patients/patient/dob/extra", false},
	}
	prefixCases = []patternCase{
		{"/patients/patient/dob", "/patients", true},
		{"/patients/patient/dob", "/patients/patient", true},
		{"/patients/patient/dob", "/other", false},
		{"//dob", "/anything", true}, // dob could still appear deeper
		{"/a/b", "/a/c", false},
		{"/a/b", "/a/b", true},
	}
)

func TestPatternMatches(t *testing.T) {
	for _, tc := range matchCases {
		p, err := CompilePattern(tc.pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", tc.pattern, err)
		}
		if got := p.Matches(tc.path); got != tc.want {
			t.Errorf("%q.Matches(%q) = %v, want %v", tc.pattern, tc.path, got, tc.want)
		}
	}
}

func TestPatternMatchesPrefix(t *testing.T) {
	for _, tc := range prefixCases {
		p := mustCompile(t, tc.pattern)
		if got := p.MatchesPrefix(tc.path); got != tc.want {
			t.Errorf("%q.MatchesPrefix(%q) = %v, want %v", tc.pattern, tc.path, got, tc.want)
		}
	}
}

func TestSelectNodes(t *testing.T) {
	root := mustParse(t, patientDoc)
	dobs := mustCompile(t, "//patient/dob").SelectNodes(root)
	if len(dobs) != 2 {
		t.Fatalf("dob nodes = %d, want 2", len(dobs))
	}
	tests := mustCompile(t, "//tests/test").SelectNodes(root)
	if len(tests) != 2 {
		t.Fatalf("test nodes = %d, want 2", len(tests))
	}
	all := mustCompile(t, "//*").SelectNodes(root)
	if len(all) != len(root.Descendants()) {
		t.Fatalf("wildcard selected %d, want %d", len(all), len(root.Descendants()))
	}
	none := mustCompile(t, "/nonexistent//x").SelectNodes(root)
	if len(none) != 0 {
		t.Fatalf("selected %d nodes for impossible pattern", len(none))
	}
}

// refMatchSteps and refMatchPrefix are the matchers as they were when
// Matches split the path with strings.Split on every call. They are kept
// as the reference the in-place walk must agree with, empty and trailing
// segments included.
func refSplitPath(path string) []string {
	if !strings.HasPrefix(path, "/") || len(path) < 2 {
		return nil
	}
	return strings.Split(path[1:], "/")
}

func refMatchSteps(steps []patternStep, segs []string) bool {
	if len(steps) == 0 {
		return len(segs) == 0
	}
	st := steps[0]
	if !st.descendant {
		if len(segs) == 0 || !segMatch(st.name, segs[0]) {
			return false
		}
		return refMatchSteps(steps[1:], segs[1:])
	}
	for i := 0; i < len(segs); i++ {
		if segMatch(st.name, segs[i]) && refMatchSteps(steps[1:], segs[i+1:]) {
			return true
		}
	}
	return false
}

func refMatchPrefix(steps []patternStep, segs []string) bool {
	if len(segs) == 0 {
		return true
	}
	if len(steps) == 0 {
		return false
	}
	st := steps[0]
	if !st.descendant {
		if !segMatch(st.name, segs[0]) {
			return false
		}
		return refMatchPrefix(steps[1:], segs[1:])
	}
	for i := 0; i < len(segs); i++ {
		if segMatch(st.name, segs[i]) && refMatchPrefix(steps[1:], segs[i+1:]) {
			return true
		}
	}
	return true
}

func TestPatternMatchersAgreeWithSplitReference(t *testing.T) {
	patterns := []string{"//a//b", "/*", "//*", "/a/*", "//a/*/b", "/a//*", "*", "/a/b", "//b"}
	paths := []string{
		"", "/", "a", "a/b", "//", "///", "/a", "/a/", "/a//", "/a/b", "/a//b", "/a/b/",
		"//a", "//a/b", "/a/x/b", "/a/x/y/b", "/x/a/y/b", "/a/b/a/b", "/b", "/a/a", "/x",
	}
	for _, tc := range matchCases {
		patterns, paths = append(patterns, tc.pattern), append(paths, tc.path)
	}
	for _, tc := range prefixCases {
		patterns, paths = append(patterns, tc.pattern), append(paths, tc.path)
	}
	for _, src := range patterns {
		p := mustCompile(t, src)
		for _, path := range paths {
			segs := refSplitPath(path)
			wantMatch := segs != nil && refMatchSteps(p.steps, segs)
			wantPrefix := segs != nil && refMatchPrefix(p.steps, segs)
			if got := p.Matches(path); got != wantMatch {
				t.Errorf("%q.Matches(%q) = %v, split reference says %v", src, path, got, wantMatch)
			}
			if got := p.MatchesPrefix(path); got != wantPrefix {
				t.Errorf("%q.MatchesPrefix(%q) = %v, split reference says %v", src, path, got, wantPrefix)
			}
		}
	}
}

func TestPatternMatchesAllocFree(t *testing.T) {
	p := mustCompile(t, "//patient//dob")
	var sink bool
	allocs := testing.AllocsPerRun(100, func() {
		sink = p.Matches("/patients/patient/records/dob") || sink
		sink = p.MatchesPrefix("/patients/patient") || sink
	})
	if allocs != 0 {
		t.Fatalf("Matches+MatchesPrefix allocate %v objects per call, want 0", allocs)
	}
	if !sink {
		t.Fatal("pattern should match")
	}
}
