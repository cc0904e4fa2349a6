package core

import (
	"net/http/httptest"
	"sync"
	"testing"

	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

func sourceConfig(t *testing.T, name string, seed uint64, n int) source.Config {
	t.Helper()
	g := clinical.NewGenerator(seed)
	cat := relational.NewCatalog()
	patients, err := g.Patients("patients", n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//patients/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patients/row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	return source.Config{Name: name, Catalog: cat, Policy: pol, Seed: seed}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Error("empty system should fail")
	}
	if _, err := NewSystem(SystemConfig{Remotes: []RemoteSource{{Name: "x"}}}); err == nil {
		t.Error("remote without url should fail")
	}
	bad := sourceConfig(t, "s", 1, 10)
	bad.Policy = nil
	if _, err := NewSystem(SystemConfig{Sources: []source.Config{bad}}); err == nil {
		t.Error("bad source config should fail")
	}
}

func TestInProcessSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Sources: []source.Config{sourceConfig(t, "A", 1, 50), sourceConfig(t, "B", 2, 30)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Endpoints()) != 2 || len(sys.Locals()) != 2 {
		t.Fatalf("endpoints/locals = %d/%d", len(sys.Endpoints()), len(sys.Locals()))
	}
	if !sys.Schema().Has("/patients/row/age") {
		t.Error("mediated schema missing age")
	}
	in, err := sys.Query("FOR //patients/row WHERE //age >= 60 RETURN //age PURPOSE research MAXLOSS 0.9", "dr")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Answered) != 2 {
		t.Errorf("answered = %v", in.Answered)
	}
	if len(in.Result.Rows) == 0 {
		t.Error("no rows integrated")
	}
}

func TestMixedLocalAndRemoteSystem(t *testing.T) {
	// Start one source as an HTTP node, mix with one in-process source.
	remoteSrc, err := source.New(sourceConfig(t, "remoteB", 9, 25))
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(remoteSrc, []byte("privateiye-default-linking-salt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(source.NewHandler(local))
	defer server.Close()

	sys, err := NewSystem(SystemConfig{
		Sources: []source.Config{sourceConfig(t, "localA", 3, 40)},
		Remotes: []RemoteSource{{Name: "remoteB", URL: server.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.Query("FOR //patients/row RETURN //sex PURPOSE research MAXLOSS 1", "dr")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Answered) != 2 {
		t.Errorf("answered = %v, denied = %v", in.Answered, in.Denied)
	}
}

// Coalesce rides SystemConfig.Mediator end to end: it reaches both the
// mediator pipeline and every local's whole-column linkage path, and
// concurrent identical queries over a durable ledger still each leave a
// history entry.
func TestSystemAmortizationKnobsEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Sources: []source.Config{sourceConfig(t, "A", 1, 50)},
		Mediator: mediator.Config{
			Durability: &mediator.DurabilityConfig{Dir: t.TempDir()},
			Coalesce:   true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, l := range sys.Locals() {
		if !l.Coalesce {
			t.Error("SystemConfig.Mediator.Coalesce did not reach the local endpoint")
		}
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sys.Query("FOR //patients/row WHERE //age >= 60 RETURN //age PURPOSE research MAXLOSS 0.9", "dr")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := len(sys.Mediator().History()); got != callers {
		t.Errorf("history has %d entries, want one per caller (%d)", got, callers)
	}
}
