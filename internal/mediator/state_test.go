package mediator

// The inference-control state has one way in (persist.go): these tests
// hold both routes to it — a live query and recovery — to the same state,
// the same refusals and the same bytes on disk.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"privateiye/internal/durable"
	"privateiye/internal/piql"
	"privateiye/internal/source"
)

// stateMediator is the Figure 1 integrator plus the two hospitals (B
// denies ages, so a hospital query records a denial) with a warehouse,
// over the state directory dir.
func stateMediator(t *testing.T, dir string) *Mediator {
	t.Helper()
	m, err := New(Config{
		Endpoints:         append([]source.Endpoint{figure1Endpoint(t)}, twoHospitals(t)...),
		LinkageSalt:       salt,
		MaxDisclosure:     0.9,
		WarehouseCapacity: 8,
		WarehouseTTL:      1 << 30,
		Durability:        &DurabilityConfig{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
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

// Both routes into the state leave the same state behind: the node the
// queries ran on, and its directory reopened.
func TestControlStateSameByEveryRoute(t *testing.T) {
	dir := t.TempDir()
	p := stateMediator(t, dir)

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
	wantCombinationRefusal(t, p, "snooper", "live node")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	m := stateMediator(t, dir)
	if got := encodedState(t, m); !bytes.Equal(got, want) {
		t.Errorf("same dir reopened: state differs from the live node's:\n got %s\nwant %s", got, want)
	}
	wantCombinationRefusal(t, m, "snooper", "same dir reopened")
}

// A record the one decoder refuses stops recovery in the decoder's own
// words, and the refused directory is left as it was.
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
			_, decoded := decodeRecord(1, []byte(payload))
			if recovered == nil || decoded == nil || recovered.Error() != decoded.Error() {
				t.Errorf("recovery = %v\ndecoder  = %v\nwant the same refusal", recovered, decoded)
			}
			l, err = durable.Open(durable.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if ents := l.RecoveredEntries(); len(ents) != 1 || string(ents[0].Payload) != payload {
				t.Errorf("the refused directory changed: %d records", len(ents))
			}
		})
	}
}

// The same for a snapshot the one decoder refuses.
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
	_, decoded := decodeSnapshot([]byte(payload))
	if recovered == nil || decoded == nil || recovered.Error() != decoded.Error() {
		t.Errorf("recovery = %v\ndecoder  = %v\nwant the same refusal", recovered, decoded)
	}
	l, err = durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := string(l.RecoveredSnapshot()); got != payload {
		t.Errorf("the refused snapshot changed: %q", got)
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

// parentEpochHex is the epoch.dat a replicated parent node kept beside
// its log, at epoch 2, as that commit's durable.StoreEpoch wrote it.
// Nothing reads it any more; a state dir that holds one still opens.
const parentEpochHex = "5049594545504f31c448501e0200000000000000"

// The parent's state directory replays under this tree, and the same
// queries under this tree write the parent's bytes: the format did not
// move. Two things changed: an answer the ledger records now writes its
// release and history entry as one record (the parent's records 3 and 4,
// the entry as the release record's "h"), and a record carries no "e"
// epoch key since replication was retired.
func TestParentStateDirReplays(t *testing.T) {
	open := func(dir string) *Mediator {
		m, err := New(Config{
			Endpoints:         []source.Endpoint{figure1Endpoint(t)},
			MaxDisclosure:     0.9,
			LedgerTolerance:   0.05,
			WarehouseCapacity: 8,
			WarehouseTTL:      1 << 30,
			Durability:        &DurabilityConfig{Dir: dir},
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
	epoch, err := hex.DecodeString(parentEpochHex)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "epoch.dat"), epoch, 0o644); err != nil {
		t.Fatal(err)
	}
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
	unstamped := func(rec string) string { return strings.ReplaceAll(rec, `,"e":1`, "") }
	entry := strings.TrimSuffix(strings.TrimPrefix(unstamped(parentRecord4), `{"k":"history","h":`), "}")
	written := []string{strings.TrimSuffix(unstamped(parentRecord3), "}") + `,"h":` + entry + "}", unstamped(parentRecord5)}
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

// A state dir an older build left draining refuses to open: its peers
// may hold requesters re-routed away from it, whom this build would
// answer from a fresh ledger. The mark that counts is the last one
// replayed, from the snapshot's "draining" or a drain record; one that
// was cleared opens as if it had never been set.
func TestParentDrainMarkFailsClosed(t *testing.T) {
	drainingSnapshot := strings.TrimSuffix(parentSnapshot, "}") + `,"draining":true}`
	for _, row := range []struct {
		name     string
		snapshot string
		records  []string
		refused  bool
	}{
		{"snapshot draining, then a WAL undrain", drainingSnapshot, []string{parentRecord3, `{"k":"drain","d":false}`}, false},
		{"a WAL drain last", parentSnapshot, []string{`{"k":"drain","d":true}`, `{"k":"drain","d":false}`, parentRecord3, `{"k":"drain","d":true}`}, true},
		{"snapshot draining alone", drainingSnapshot, nil, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := durable.Open(durable.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.SaveSnapshot([]byte(row.snapshot)); err != nil {
				t.Fatal(err)
			}
			for _, rec := range row.records {
				if _, err := l.Append([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			m, err := New(Config{
				Endpoints:     []source.Endpoint{figure1Endpoint(t)},
				MaxDisclosure: 0.9,
				Durability:    &DurabilityConfig{Dir: dir},
			})
			if row.refused {
				if !errors.Is(err, errLeftDraining) || !strings.Contains(err.Error(), "undrain this shard with that build first") {
					t.Fatalf("New = %v, want the left-draining refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			wantCombinationRefusal(t, m, "early", "release from the snapshot")
			wantCombinationRefusal(t, m, "snooper", "release from the WAL")
		})
	}
}

// figure1Releases are the Figure 1(a) and 1(b) releases as the ledger
// records them, answered on m by a requester the tests do not use.
func figure1Releases(t testing.TB, m *Mediator) (a, b ledgerRelease) {
	t.Helper()
	for i, text := range []string{perTestQuery, perHMOQuery} {
		in, err := m.Query(text, fmt.Sprint("figure1-", i))
		if err != nil {
			t.Fatal(err)
		}
		rel, ok := classifyRelease(piql.MustParse(text), in.Result, nil)
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
	m := stateMediator(t, dir)
	relA, relB := figure1Releases(t, m)
	entry := func(req string) HistoryEntry {
		return HistoryEntry{Requester: req, Query: "q", Sources: []string{"integrator"}}
	}

	// r's Figure 1(b) passes its check against no priors; Figure 1(a)
	// commits before 1(b) does.
	table, priors, memo := m.ledger.priors("r")
	if err := m.checkCombinations(relB, table, priors, memo); err != nil {
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
	table, priors, memo = m.ledger.priors("s")
	if err := m.checkCombinations(relA, table, priors, memo); err != nil {
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
	m = stateMediator(t, dir)
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
	m := stateMediator(t, dir)
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
	if got := encodedState(t, stateMediator(t, dir)); !bytes.Equal(got, want) {
		t.Errorf("reopened:\n got %s\nwant %s", got, want)
	}
}
