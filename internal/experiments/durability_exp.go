package experiments

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/durable"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// E18Durability measures what crash-safe inference control costs. Three
// questions: how long does a restarted mediator take to replay its
// release history (and how large are the WAL and snapshot it replays),
// what does each fsync policy cost in append throughput, and — the
// point of the whole subsystem — does a restarted mediator still refuse
// the Figure 1 combination a fresh in-memory one would grant
// (restart-amnesia).
func E18Durability(releaseCounts []int) (*Table, error) {
	t := &Table{
		Title:  "E18: durable inference-control state — recovery cost, fsync throughput, restart-amnesia",
		Header: []string{"scenario", "wal", "snapshot", "recovery", "replayed", "appends/s"},
	}

	// One WAL record shaped like a real ledgered release (three groups of
	// means + sigmas, JSON-encoded as the mediator writes them).
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf(
			`{"k":"release","req":"req%d","rel":{"t":"//compliance/row","v":"rate","a":"test","m":{"cholesterol":%.2f,"hypertension":%.2f,"diabetes":%.2f},"s":{"cholesterol":1.52,"hypertension":2.36,"diabetes":3.04}}}`,
			i%17, 70+float64(i%9), 60+float64(i%7), 80+float64(i%5)))
	}

	// Recovery cost vs history length: write n releases (snapshotting
	// when the log says compaction is due, exactly as the mediator does),
	// then time a cold reopen.
	for _, n := range releaseCounts {
		dir, err := os.MkdirTemp("", "e18-recovery-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		l, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNever})
		if err != nil {
			return nil, err
		}
		var state bytes.Buffer // accumulated "full state", like a real snapshot
		for i := 0; i < n; i++ {
			p := payload(i)
			if _, err := l.Append(p); err != nil {
				return nil, err
			}
			state.Write(p)
			state.WriteByte('\n')
			if l.CompactionDue() {
				if err := l.SaveSnapshot(state.Bytes()); err != nil {
					return nil, err
				}
			}
		}
		if err := l.Close(); err != nil {
			return nil, err
		}

		start := time.Now()
		r, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		wal, snap := r.Sizes()
		replayed := len(r.RecoveredEntries())
		r.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("recover %d releases", n),
			kb(wal), kb(snap), ms(elapsed),
			fmt.Sprintf("%d wal + snapshot", replayed), "-",
		})
	}

	// Fsync policy cost: identical append workloads, only the sync
	// policy varies. FsyncAlways pays one fsync per release — the price
	// of "an acknowledged release is never forgotten".
	const throughputN = 400
	for _, pol := range []durable.FsyncPolicy{durable.FsyncAlways, durable.FsyncInterval, durable.FsyncNever} {
		dir, err := os.MkdirTemp("", "e18-fsync-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		l, err := durable.Open(durable.Options{Dir: dir, Fsync: pol})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < throughputN; i++ {
			if _, err := l.Append(payload(i)); err != nil {
				return nil, err
			}
		}
		if err := l.Close(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			"fsync=" + pol.String(), "-", "-", "-", "-",
			fmt.Sprintf("%.0f", float64(throughputN)/elapsed.Seconds()),
		})
	}

	// The acceptance scenario: sigma release, restart over the same state
	// directory, combining means query. The restarted mediator must refuse
	// exactly as an unrestarted one would.
	verdict, err := restartAmnesiaVerdict()
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Fig1(b) after restart", "-", "-", "-", "-", verdict})
	if verdict != "REFUSED" {
		return nil, fmt.Errorf("experiments: E18 restart-amnesia verdict is %q, want REFUSED", verdict)
	}

	t.Notes = append(t.Notes,
		"recovery replays snapshot + WAL tail; compaction runs when the tail outgrows max(1 MiB, snapshot), so the tail replayed is never larger than that",
		"fsync=always is the fail-closed setting: a release is acknowledged only after its record is on disk",
		"restart row: the snooper holds the Figure 1(a) sigmas, the mediator restarts, the Figure 1(b) means must still be refused")
	return t, nil
}

// restartAmnesiaVerdict runs the E15 Figure 1 pair with a mediator
// restart in between, over a shared state directory.
func restartAmnesiaVerdict() (string, error) {
	dir, err := os.MkdirTemp("", "e18-amnesia-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)

	build := func() (*mediator.Mediator, error) {
		tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
		if err != nil {
			return nil, err
		}
		cat := relational.NewCatalog()
		if err := cat.Add(tab); err != nil {
			return nil, err
		}
		pol, err := policy.NewPolicy("integrator", policy.Deny,
			policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
		)
		if err != nil {
			return nil, err
		}
		src, err := source.New(source.Config{Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
		if err != nil {
			return nil, err
		}
		ep, err := source.NewLocal(src, []byte("e18"), psi.TestGroup())
		if err != nil {
			return nil, err
		}
		return mediator.New(mediator.Config{
			Endpoints:       []source.Endpoint{ep},
			MaxDisclosure:   0.9,
			LedgerTolerance: 0.05,
			Durability:      &mediator.DurabilityConfig{Dir: dir},
		})
	}
	const (
		q1 = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
		q2 = "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	)
	m, err := build()
	if err != nil {
		return "", err
	}
	if _, err := m.Query(q1, "snooper"); err != nil {
		return "", fmt.Errorf("experiments: E18 sigma release should pass: %w", err)
	}
	if err := m.Close(); err != nil {
		return "", err
	}
	m2, err := build()
	if err != nil {
		return "", err
	}
	defer m2.Close()
	if _, err := m2.Query(q2, "snooper"); err != nil {
		return "REFUSED", nil
	}
	return "granted", nil
}

func kb(n int64) string { return fmt.Sprintf("%.1fKB", float64(n)/1024) }
