package privateiye_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// gatedMetrics are the end-to-end metrics that repeat closely enough
// across runs and seeds to fail a build: allocations and wire bytes to
// ~0.01 % (EXPERIMENTS.md E26–E32), the live heap to quartile distances
// under 0.5 % (E36, E37), far inside its 10 % bound. Set-up time does
// not repeat to its bound.
var gatedMetrics = []string{"allocs_per_op", "wire_kb_per_op", "heap_live_mb"}

type benchReport struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// gateRuns is how many times the gate runs each workload; it compares
// the median of each gated metric. psi_overlap's 80 ops read allocs/op
// with a ~1.8 % spread on one binary (E60), near its 2 % bound, so one
// run from a committed low figure could fail an unchanged build.
const gateRuns = 3

// TestBenchGate is `make bench-gate`: every BENCHMARK.json workload
// gateRuns times, at the seed and the short run length the latest
// committed BENCH_<pr>.json recorded its gate figures at (each the median
// of gateRuns runs), failing if the median of a gated metric is worse
// than the committed figure by more than BENCHMARK.json's bound for it.
// It runs only when asked to (a few minutes of `go run ./bench/load`).
func TestBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1, or run `make bench-gate`")
	}
	var contract struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &contract)
	bound := map[string]float64{}
	for _, m := range contract.EndToEnd {
		bound[m.Name] = m.Bound
	}
	var record struct {
		Gate struct {
			Seed      int                    `json:"seed"`
			Seconds   float64                `json:"seconds"`
			Workloads map[string]benchReport `json:"workloads"`
		} `json:"gate"`
	}
	latest := latestBenchRecord(t)
	readJSON(t, latest, &record)

	for _, w := range contract.Workloads {
		want, ok := record.Gate.Workloads[w.Name]
		if !ok {
			t.Errorf("%s records no gate figures for workload %s", latest, w.Name)
			continue
		}
		runs := make([]benchReport, gateRuns)
		for i := range runs {
			runs[i] = runWorkload(t, w.Name, record.Gate.Seed, record.Gate.Seconds)
			if !runs[i].Correct || runs[i].Failed != 0 {
				t.Errorf("%s: %d failed ops", w.Name, runs[i].Failed)
			}
		}
		for _, m := range gatedMetrics {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r.Metrics[m].Value
			}
			slices.Sort(vals)
			g, c := vals[len(vals)/2], want.Metrics[m].Value
			t.Logf("%-14s %-15s %12.3f  committed %12.3f  (%+.2f %%)  runs %.3f", w.Name, m, g, c, 100*(g/c-1), vals)
			if g > c*(1+bound[m]) {
				t.Errorf("%s: %s = %.3f (median of %d), more than %.0f %% over the %.3f committed in %s",
					w.Name, m, g, gateRuns, 100*bound[m], c, latest)
			}
		}
	}
}

// runWorkload runs one workload of the benchmark once and returns its
// report, the last line of its output.
func runWorkload(t *testing.T, name string, seed int, seconds float64) benchReport {
	t.Helper()
	cmd := exec.Command("go", "run", "./bench/load", "--workload", name, "--trace", "0",
		"--seed", strconv.Itoa(seed), "--seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var got benchReport
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		t.Fatalf("%s: last line of output is not a report: %v", name, err)
	}
	return got
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, into)
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// latestBenchRecord is the BENCH_<pr>.json with the highest PR number.
func latestBenchRecord(t *testing.T) string {
	t.Helper()
	files, _ := filepath.Glob("BENCH_*.json")
	latest, highest := "", -1
	for _, f := range files {
		pr, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f, "BENCH_"), ".json"))
		if err == nil && pr > highest {
			latest, highest = f, pr
		}
	}
	if latest == "" {
		t.Fatal("no BENCH_<pr>.json committed")
	}
	return latest
}
