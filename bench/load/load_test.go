package main

import (
	"path/filepath"
	"testing"
)

// testScale runs every workload at about 1/200 of its frozen op count.
const testScale = 1.0 / 200

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsEndToEnd runs every workload's untraced run at test scale:
// the oracles pass and exactly the end-to-end metrics BENCHMARK.json
// names are emitted, with its units.
func TestWorkloadsEndToEnd(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	if float64(bf.RunSeconds) != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, op counts are frozen for %v", bf.RunSeconds, runSeconds)
	}
	for _, entry := range bf.Workloads {
		w, ok := findWorkload(entry.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the harness", entry.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			rep, err := runEndToEnd(w, 7, testScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			checkNames(t, rep, want)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

// TestWorkloadsPerLayer runs every workload's -trace 1 run twice with one
// seed: exactly the per-layer metrics BENCHMARK.json names are emitted,
// and the counters that count work rather than time repeat exactly.
func TestWorkloadsPerLayer(t *testing.T) {
	bf := loadBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	exact := []string{"durable.appends_per_op", "mediator.source_calls_per_op", "mediator.ledger_refusals"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var reps [2]*report
			for i := range reps {
				var err error
				if reps[i], err = runPerLayer(w, 7, testScale/traceShare, filepath.Join(t.TempDir(), "spans.json")); err != nil {
					t.Fatal(err)
				}
			}
			checkNames(t, reps[0], want)
			for _, name := range exact {
				if a, b := reps[0].Metrics[name].Value, reps[1].Metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v with the same seed", name, a, b)
				}
			}
			if reps[0].Metrics["trace.unattributed_share"].Value == 0 {
				t.Error("trace.unattributed_share is 0: no span joined a client op")
			}
			switch w.name {
			case "ledger_mix":
				if reps[0].Metrics["mediator.ledger_refusals"].Value < 1 {
					t.Error("no Figure 1b refusal was counted")
				}
			case "psi_overlap":
				if v := reps[0].Metrics["durable.appends_per_op"].Value; v != 0 {
					t.Errorf("durable.appends_per_op = %v on the WAL-bypass workload", v)
				}
			case "hot_aggregate":
				if v := reps[0].Metrics["mediator.source_calls_per_op"].Value; v != 0 {
					t.Errorf("mediator.source_calls_per_op = %v on the warehouse-served workload", v)
				}
			}
		})
	}
}

func checkNames(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range rep.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
		}
	}
}
