package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

const denyAgeForResearch = `<policy owner="subject-9" default="allow">
  <rule item="//patients/row/age" purpose="research" effect="deny"/>
</policy>`

// A data-subject preference reaches a running source only through the
// -preferences files read at start-up: one registered from a file binds
// the answers the source serves over HTTP, a file that is not a policy
// is refused, and no route on the network takes one.
func TestPreferenceFilesBindTheSource(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	deny, bad := write("deny.xml", denyAgeForResearch), write("bad.xml", "<notpolicy/>")

	tab, err := clinical.NewGenerator(1).Patients("patients", 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := loadPolicy("", "hospitalA")
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: "hospitalA", Catalog: cat, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(source.NewHandler(local))
	defer srv.Close()
	client := source.NewClient(srv.URL, "hospitalA")
	ctx := context.Background()
	const q = "FOR //patients/row RETURN //age PURPOSE research MAXLOSS 0.9"
	if _, err := client.Query(ctx, q, "r"); err != nil {
		t.Fatalf("before any preference: %v", err)
	}

	resp, err := srv.Client().Post(srv.URL+"/preferences", "application/xml", strings.NewReader(denyAgeForResearch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /preferences: %d, want 404", resp.StatusCode)
	}
	if _, err := client.Query(ctx, q, "r"); err != nil || len(src.Preferences()) != 0 {
		t.Errorf("a POSTed preference took hold: %v, %d preferences", err, len(src.Preferences()))
	}

	if err := addPreferences(src, ""); err != nil || len(src.Preferences()) != 0 {
		t.Errorf("no files: %v, %d preferences", err, len(src.Preferences()))
	}
	if err := addPreferences(src, " "+deny+" "); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(ctx, q, "r"); err == nil {
		t.Error("a preference registered from a file should deny research use of age")
	}
	for _, f := range []string{bad, filepath.Join(dir, "missing.xml")} {
		if err := addPreferences(src, f); err == nil {
			t.Errorf("%s: registered", filepath.Base(f))
		}
	}
	if n := len(src.Preferences()); n != 1 {
		t.Errorf("%d preferences, want 1", n)
	}
}
