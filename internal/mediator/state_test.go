package mediator

// The inference-control state has one way in (persist.go): these tests
// hold every route to it — a live query, recovery, a standby tailing
// entries, a standby installing a snapshot — to the same state, the same
// refusals and the same bytes on disk.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privateiye/internal/durable"
	"privateiye/internal/obs"
	"privateiye/internal/piql"
	"privateiye/internal/source"
)

// stateMediator is the Figure 1 integrator plus the two hospitals (B
// denies ages, so a hospital query records a denial) with a warehouse,
// over the state directory dir. rep == nil runs it unreplicated.
func stateMediator(t *testing.T, dir string, rep *ReplicaConfig) *Mediator {
	t.Helper()
	m, err := New(Config{
		Endpoints:         append([]source.Endpoint{figure1Endpoint(t)}, twoHospitals(t)...),
		LinkageSalt:       salt,
		MaxDisclosure:     0.9,
		LedgerTolerance:   0.05,
		WarehouseCapacity: 8,
		WarehouseTTL:      1 << 30,
		Durability:        &DurabilityConfig{Dir: dir},
		Replica:           rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// serve mounts the primary's handler — the stream standbys tail — and
// returns its URL. stop also cuts the streams open on it: they never end
// on their own, and httptest's Close waits for them.
func serve(t *testing.T, primary *Mediator) (url string, stop func()) {
	t.Helper()
	srv := httptest.NewServer(NewHandler(primary))
	stop = func() {
		srv.CloseClientConnections()
		srv.Close()
	}
	t.Cleanup(stop)
	return srv.URL, stop
}

// standbyOf attaches a fresh standby to the primary served at url and
// waits until it has everything the primary's log holds.
func standbyOf(t *testing.T, primary *Mediator, url string) *Mediator {
	t.Helper()
	s := stateMediator(t, t.TempDir(), &ReplicaConfig{PrimaryURL: url, Heartbeat: 10 * time.Millisecond, Reconnect: 10 * time.Millisecond})
	waitLevel(t, s, primary)
	return s
}

// waitLevel returns once the standby's log ends where its primary's does.
func waitLevel(t *testing.T, standby, primary *Mediator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for standby.Ready() != nil || standby.dlog.LastSeq() != primary.dlog.LastSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up: %+v, primary at %d", standby.ReplicationStatus(), primary.dlog.LastSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// encodedState is the snapshot a node would write now. encoding/json
// orders map keys and the history is a sequence, so equal states encode
// to equal bytes.
func encodedState(t *testing.T, m *Mediator) []byte {
	t.Helper()
	_, encode := m.captureState()
	b, err := encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wantCombinationRefusal(t *testing.T, m *Mediator, requester, who string) {
	t.Helper()
	var refusal *CombinationRefusal
	if _, err := m.Query(perHMOQuery, requester); !errors.As(err, &refusal) {
		t.Errorf("%s: Figure 1(b) for %s = %v, want a CombinationRefusal", who, requester, err)
	}
}

// A standby that connects after its primary's first compaction — every
// real standby — is sent the snapshot, then the entries after it. What
// it installs must bind it exactly as the primary is bound, after
// promotion and after its own restart.
func TestStandbyJoinsAfterCompaction(t *testing.T) {
	p := stateMediator(t, t.TempDir(), &ReplicaConfig{})
	url, _ := serve(t, p)
	if _, err := p.Query(perTestQuery, "snooper"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(shardTestQuery, "reader"); err != nil { // history, no release
		t.Fatal(err)
	}
	if err := p.snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(perTestQuery, "late"); err != nil { // lands in the WAL tail
		t.Fatal(err)
	}

	s := standbyOf(t, p, url)
	if _, snap := s.dlog.Sizes(); snap == 0 {
		t.Fatal("the standby installed no snapshot: this test covers the snapshot frame")
	}
	if got, want := encodedState(t, s), encodedState(t, p); !bytes.Equal(got, want) {
		t.Errorf("standby state differs from its primary's:\n got %s\nwant %s", got, want)
	}
	if _, err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	wantCombinationRefusal(t, s, "snooper", "promoted standby (release from the snapshot)")
	wantCombinationRefusal(t, s, "late", "promoted standby (release from an entry frame)")
	if _, err := s.Query(perHMOQuery, "bystander"); err != nil {
		t.Errorf("bystander on the promoted standby: %v", err)
	}
	for _, r := range []string{"snooper", "reader"} {
		if !s.hasRequesterState(r) {
			t.Errorf("hasRequesterState(%s) = false on the standby", r)
		}
	}

	dir := s.cfg.Durability.Dir
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantCombinationRefusal(t, stateMediator(t, dir, nil), "snooper", "the standby's state dir reopened")
}

// A standby promoted while it installs a snapshot frame must not let
// that install land afterwards: it would reset the log and the ledger
// under a release the new primary had already granted, and the release's
// Figure 1 complement would then be granted too. The install is parked
// just before its temp file's fsync, with Promote called meanwhile.
func TestPromotionWaitsForSnapshotInstall(t *testing.T) {
	p := stateMediator(t, t.TempDir(), &ReplicaConfig{})
	url, _ := serve(t, p)
	if _, err := p.Query(perTestQuery, "filler"); err != nil {
		t.Fatal(err)
	}
	if err := p.snapshot(); err != nil {
		t.Fatal(err)
	}

	fp := durable.NewFailpoints()
	reached, release := fp.Park(durable.FPSnapSync)
	reg := obs.NewRegistry()
	s, err := New(Config{
		Endpoints:         append([]source.Endpoint{figure1Endpoint(t)}, twoHospitals(t)...),
		LinkageSalt:       salt,
		MaxDisclosure:     0.9,
		LedgerTolerance:   0.05,
		WarehouseCapacity: 8,
		WarehouseTTL:      1 << 30,
		Durability:        &DurabilityConfig{Dir: t.TempDir(), Failpoints: fp},
		Replica:           &ReplicaConfig{PrimaryURL: url, Heartbeat: 10 * time.Millisecond, Reconnect: 10 * time.Millisecond},
		Obs:               reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the standby never started installing the snapshot frame")
	}

	promoted := make(chan error, 1)
	go func() {
		_, err := s.Promote()
		promoted <- err
	}()
	// Promote may wait for the parked install (it must not return before
	// it); either way the release below is granted by the primary.
	released := false
	select {
	case err = <-promoted:
	case <-time.After(200 * time.Millisecond):
		release()
		released = true
		err = <-promoted
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(perTestQuery, "snooper"); err != nil {
		t.Fatalf("Figure 1(a) on the promoted standby: %v", err)
	}
	if !released {
		release()
	}
	installed := reg.Counter("piye_replica_snapshots_installed_total")
	for deadline := time.Now().Add(10 * time.Second); installed.Value() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the parked snapshot install never finished")
		}
	}
	wantCombinationRefusal(t, s, "snooper", "standby promoted mid-install")
}

// Every route into the state leaves the same state behind: the node the
// queries ran on, its directory reopened, a standby that tailed every
// entry, a standby that installed a snapshot, and that standby's
// directory reopened.
func TestControlStateSameByEveryRoute(t *testing.T) {
	dir := t.TempDir()
	p := stateMediator(t, dir, &ReplicaConfig{})
	url, stop := serve(t, p)
	tailing := standbyOf(t, p, url)

	script := []struct {
		query, requester string
		refused          bool
	}{
		{perTestQuery, "snooper", false},
		{perTestQuery, "snooper", false},  // served from the warehouse
		{perHMOQuery, "snooper", true},    // Figure 1(b): refused, records nothing
		{shardTestQuery, "reader", false}, // hospitalB denies it
		{perTestQuery, "second", false},
	}
	for i, step := range script {
		if i == 3 {
			if err := p.snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Query(step.query, step.requester); (err != nil) != step.refused {
			t.Fatalf("step %d (%s): err = %v, refused want %v", i, step.requester, err, step.refused)
		}
	}
	h := p.History()
	if len(h) != 4 || h[1].Sources[0] != "warehouse" || len(h[2].Denied) != 1 {
		t.Fatalf("the script did not record what it is meant to: %+v", h)
	}
	want := encodedState(t, p)

	joined := standbyOf(t, p, url) // from sequence 0: snapshot frame, then entries
	if _, snap := joined.dlog.Sizes(); snap == 0 {
		t.Fatal("the late standby installed no snapshot")
	}
	waitLevel(t, tailing, p)
	stop()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	joinedDir := joined.cfg.Durability.Dir

	for _, route := range []struct {
		name string
		m    func() *Mediator
	}{
		{"same dir reopened", func() *Mediator { return stateMediator(t, dir, nil) }},
		{"standby that tailed entries", func() *Mediator { return tailing }},
		{"standby that installed a snapshot", func() *Mediator { return joined }},
		{"that standby reopened", func() *Mediator {
			if err := joined.Close(); err != nil {
				t.Fatal(err)
			}
			return stateMediator(t, joinedDir, nil)
		}},
	} {
		m := route.m()
		if got := encodedState(t, m); !bytes.Equal(got, want) {
			t.Errorf("%s: state differs from the live node's:\n got %s\nwant %s", route.name, got, want)
		}
		if m.node != nil {
			if _, err := m.Promote(); err != nil {
				t.Fatal(err)
			}
		}
		wantCombinationRefusal(t, m, "snooper", route.name)
	}
}

// A record the one decoder refuses is refused in the same words whether
// recovery or a replication stream delivered it, and changes nothing.
func TestMalformedRecordRefusedTheSameEverywhere(t *testing.T) {
	for name, payload := range map[string]string{
		"unknown kind":         `{"k":"grant","req":"r"}`,
		"release with no body": `{"k":"release","req":"r"}`,
		"truncated JSON":       `{"k":"history","h":{"Requester":"r","Que`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := durable.Open(durable.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte(payload)); err != nil {
				t.Fatal(err)
			}
			l.Close()
			_, recovered := New(Config{Endpoints: []source.Endpoint{figure1Endpoint(t)}, Durability: &DurabilityConfig{Dir: dir}})
			if recovered == nil {
				t.Fatal("recovery accepted the record")
			}

			m := stateMediator(t, t.TempDir(), nil)
			before := encodedState(t, m)
			replicated := mediatorApplier{m}.ApplyEntry(1, []byte(payload))
			if replicated == nil || replicated.Error() != recovered.Error() {
				t.Errorf("ApplyEntry = %v\nrecovery   = %v\nwant the same refusal", replicated, recovered)
			}
			if seq := m.dlog.LastSeq(); seq != 0 {
				t.Errorf("the refused record reached the standby's log (last seq %d)", seq)
			}
			if after := encodedState(t, m); !bytes.Equal(after, before) {
				t.Errorf("the refused record changed the state: %s", after)
			}
		})
	}
}

// The same for a snapshot the one decoder refuses — and the standby's
// log must not have taken it either, or the standby could not reopen.
func TestMalformedSnapshotRefusedTheSameEverywhere(t *testing.T) {
	const payload = `{"releases":{"r":[{"t":`
	dir := t.TempDir()
	l, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recovered := New(Config{Endpoints: []source.Endpoint{figure1Endpoint(t)}, Durability: &DurabilityConfig{Dir: dir}})
	if recovered == nil {
		t.Fatal("recovery accepted the snapshot")
	}

	m := stateMediator(t, t.TempDir(), nil)
	replicated := mediatorApplier{m}.ApplySnapshot(7, []byte(payload))
	if replicated == nil || replicated.Error() != recovered.Error() {
		t.Errorf("ApplySnapshot = %v\nrecovery      = %v\nwant the same refusal", replicated, recovered)
	}
	if _, snap := m.dlog.Sizes(); snap != 0 || m.dlog.LastSeq() != 0 {
		t.Errorf("the refused snapshot reached the standby's log (%d bytes, last seq %d)", snap, m.dlog.LastSeq())
	}
}

// A state directory as the parent of the one-apply-path change wrote it:
// an epoch-1 primary answered Figure 1(a) for "early", snapshotted, then
// answered it for "snooper" twice (the second from the warehouse).
// Pasted from that commit's files, never regenerated from this tree.
const (
	parentSnapshot = `{"releases":{"early":[{"t":"//compliance/row","v":"rate","a":"test","m":{"Eye Exam":45.414,"HbA1c":82.97500000000001,"Lipid Profile":54.104749999999996},"s":{"Eye Exam":1.7102974887428042,"HbA1c":4.957899908227097,"Lipid Profile":4.0920700980678255}}]},"history":[{"Requester":"early","Query":"FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9","Sources":["integrator"],"Denied":[],"Clock":1}]}`
	parentRecord3  = `{"k":"release","req":"snooper","e":1,"rel":{"t":"//compliance/row","v":"rate","a":"test","m":{"Eye Exam":45.414,"HbA1c":82.97500000000001,"Lipid Profile":54.104749999999996},"s":{"Eye Exam":1.7102974887428042,"HbA1c":4.957899908227097,"Lipid Profile":4.0920700980678255}}}`
	parentRecord4  = `{"k":"history","e":1,"h":{"Requester":"snooper","Query":"FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9","Sources":["integrator"],"Denied":[],"Clock":2}}`
	parentRecord5  = `{"k":"history","e":1,"h":{"Requester":"snooper","Query":"FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9","Sources":["warehouse"],"Denied":null,"Clock":2}}`
)

// The parent's state directory replays under this tree, and the same
// queries under this tree write the parent's bytes: the format did not
// move. The one change is that an answer the ledger records now writes
// its release and history entry as one record: the parent's records 3
// and 4, the entry as the release record's "h".
func TestParentStateDirReplays(t *testing.T) {
	open := func(dir string) *Mediator {
		m, err := New(Config{
			Endpoints:         []source.Endpoint{figure1Endpoint(t)},
			MaxDisclosure:     0.9,
			LedgerTolerance:   0.05,
			WarehouseCapacity: 8,
			WarehouseTTL:      1 << 30,
			Durability:        &DurabilityConfig{Dir: dir},
			Replica:           &ReplicaConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	records := []string{parentRecord3, parentRecord4, parentRecord5}

	old := t.TempDir()
	l, err := durable.Open(durable.Options{Dir: old})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // sequences 1 and 2: what the snapshot covers
		if _, err := l.Append([]byte("compacted away")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveSnapshot([]byte(parentSnapshot)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if _, err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	m := open(old)
	h := m.History()
	if len(h) != 3 || h[0].Requester != "early" || h[2].Sources[0] != "warehouse" || h[2].Clock != 2 {
		t.Errorf("replayed history = %+v", h)
	}
	wantCombinationRefusal(t, m, "early", "release from the parent's snapshot")
	wantCombinationRefusal(t, m, "snooper", "release from the parent's WAL")

	fresh := t.TempDir()
	w := open(fresh)
	if _, err := w.Query(perTestQuery, "early"); err != nil {
		t.Fatal(err)
	}
	if err := w.snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Query(perTestQuery, "snooper"); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	l, err = durable.Open(durable.Options{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := string(l.RecoveredSnapshot()); got != parentSnapshot {
		t.Errorf("snapshot differs from the parent's:\n got %s\nwant %s", got, parentSnapshot)
	}
	entry := strings.TrimSuffix(strings.TrimPrefix(parentRecord4, `{"k":"history","e":1,"h":`), "}")
	written := []string{strings.TrimSuffix(parentRecord3, "}") + `,"h":` + entry + "}", parentRecord5}
	ents := l.RecoveredEntries()
	if len(ents) != len(written) {
		t.Fatalf("%d WAL records after the snapshot, want %d", len(ents), len(written))
	}
	for i, e := range ents {
		if string(e.Payload) != written[i] {
			t.Errorf("record %d differs from the parent's:\n got %s\nwant %s", e.Seq, e.Payload, written[i])
		}
	}
}

// figure1Releases are the Figure 1(a) and 1(b) releases as the ledger
// records them, answered on m by a requester the tests do not use.
func figure1Releases(t *testing.T, m *Mediator) (a, b ledgerRelease) {
	t.Helper()
	for i, text := range []string{perTestQuery, perHMOQuery} {
		in, err := m.Query(text, fmt.Sprint("figure1-", i))
		if err != nil {
			t.Fatal(err)
		}
		rel, ok := classifyRelease(piql.MustParse(text), in.Result)
		if !ok {
			t.Fatalf("%s did not classify", text)
		}
		if i == 0 {
			a = rel
		} else {
			b = rel
		}
	}
	return a, b
}

// The commit section (ledger.go): the combination check runs on a copy
// of the requester's ids taken before it, so the commit must notice a
// release the requester was granted meanwhile and check again; and a
// snapshot cut between the check and the commit must leave the commit
// wholly after it, in the WAL.
func TestCommitSectionRechecksAndCutsExactly(t *testing.T) {
	dir := t.TempDir()
	m := stateMediator(t, dir, nil)
	relA, relB := figure1Releases(t, m)
	entry := func(req string) HistoryEntry {
		return HistoryEntry{Requester: req, Query: "q", Sources: []string{"integrator"}}
	}

	// r's Figure 1(b) passes its check against no priors; Figure 1(a)
	// commits before 1(b) does.
	table, priors := m.ledger.priors("r")
	if err := m.checkCombinations(relB, table, priors); err != nil {
		t.Fatal(err)
	}
	if err := m.checkAndRecord("r", relA, entry("r")); err != nil {
		t.Fatal(err)
	}
	if done, err := m.commit("r", len(priors), relB, entry("r")); done || err != nil {
		t.Fatalf("a commit against grown priors: done %v, %v; want it sent back to the check", done, err)
	}
	var refusal *CombinationRefusal
	if err := m.checkAndRecord("r", relB, entry("r")); !errors.As(err, &refusal) {
		t.Fatalf("Figure 1(b) after 1(a): %v, want a CombinationRefusal", err)
	}

	// s's Figure 1(a) passes its check; a snapshot is cut; then it
	// commits.
	table, priors = m.ledger.priors("s")
	if err := m.checkCombinations(relA, table, priors); err != nil {
		t.Fatal(err)
	}
	if err := m.snapshot(); err != nil {
		t.Fatal(err)
	}
	if done, err := m.commit("s", len(priors), relA, entry("s")); !done || err != nil {
		t.Fatalf("commit after the snapshot: done %v, %v", done, err)
	}
	want := encodedState(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m = stateMediator(t, dir, nil)
	if got := encodedState(t, m); !bytes.Equal(got, want) {
		t.Errorf("reopened over the snapshot and the WAL after it:\n got %s\nwant %s", got, want)
	}
	if h := m.History(); len(h) != 4 || h[2].Requester != "r" || h[3].Requester != "s" {
		t.Errorf("history = %+v, want the two Figure 1 answers, then r's and s's", h)
	}
	for _, req := range []string{"r", "s"} {
		wantCombinationRefusal(t, m, req, "reopened")
	}
}

// One requester's Figure 1(a) and 1(b) race each other, and a snapshot
// races both: at most one of the pair is granted, whichever commits
// first, and a restart holds exactly what the live node held.
func TestCommitSectionRaces(t *testing.T) {
	dir := t.TempDir()
	m := stateMediator(t, dir, nil)
	for i := 0; i < 4; i++ {
		req := fmt.Sprint("racer-", i)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for j, text := range []string{perTestQuery, perHMOQuery} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[j] = m.Query(text, req)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.snapshot(); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if errs[0] == nil && errs[1] == nil {
			t.Fatalf("%s was granted both halves of Figure 1", req)
		}
		if got := len(m.ledger.releasesOf(req)); got != 1 {
			t.Errorf("%s holds %d releases, want the one granted", req, got)
		}
	}
	want := encodedState(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := encodedState(t, stateMediator(t, dir, nil)); !bytes.Equal(got, want) {
		t.Errorf("reopened:\n got %s\nwant %s", got, want)
	}
}
