package main

// aa.go is the A/A check: the same code measured N times per workload as
// separate processes, each with another seed, alternating the workload
// order from round to round. It reports what the driver computes — per
// metric × workload the median, the quartiles and their distance as a
// share of the median — and compares the first half of the rounds with
// the second against each metric's bound.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check and the tests read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// quartiles are Python's statistics.quantiles(values, n=4), which is what
// the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = min(max(j, 1), ld-1)
		delta := i*(ld+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worsening is how far b is worse than a, as a share of a.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runAA(rounds int, seed uint64, seconds float64) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: -aa reads the bounds from BENCHMARK.json in the working directory: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 2
	}
	// values[workload][metric] in round order.
	values := map[string]map[string][]float64{}
	for r := 0; r < rounds; r++ {
		order := append([]workload(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed+uint64(r), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "load: -aa round %d %s: %v\n%s", r, w.name, err, out)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "load: -aa round %d %s: bad result line: %v\n", r, w.name, err)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range rep.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			for _, l := range lines {
				switch {
				case strings.HasPrefix(l, "rounds_qps:"):
					fmt.Printf("round %2d %-14s seed %d  %s\n", r, w.name, seed+uint64(r), l)
				case strings.HasPrefix(l, "unbounded:"):
					// Timed readings without a bound: reported, never judged.
					for _, kv := range strings.Fields(l)[1:] {
						if name, val, ok := strings.Cut(kv, "="); ok {
							if v, err := strconv.ParseFloat(val, 64); err == nil {
								values[w.name][name] = append(values[w.name][name], v)
							}
						}
					}
				}
			}
		}
	}

	bad := 0
	fmt.Printf("\n%-14s %-15s %12s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "halves", "bound", "verdict")
	type judged struct {
		name, better string
		bound        float64
	}
	var rows []judged
	for _, m := range bf.EndToEnd {
		rows = append(rows, judged{m.Name, m.Better, m.Bound})
	}
	rows = append(rows, judged{"qps", "higher", 0}, judged{"p50_ms", "lower", 0}, judged{"cpu_ms_per_op", "lower", 0})
	for _, w := range workloads {
		for _, m := range rows {
			vs := values[w.name][m.name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := (q3 - q1) / q2
			_, first, _ := quartiles(vs[:(len(vs)+1)/2])
			_, second, _ := quartiles(vs[len(vs)/2:])
			drift := worsening(first, second, m.better)
			verdict, bound := "ok", fmt.Sprintf("%6.1f%%", 100*m.bound)
			switch {
			case m.bound == 0:
				verdict, bound = "(no bound: per-layer reading)", "      -"
			case drift > m.bound:
				verdict = "HALVES DISAGREE"
				bad++
			case m.name != "setup_s" && spread > m.bound:
				verdict = "SPREAD OVER BOUND"
				bad++
			case m.name != "setup_s" && spread > m.bound/3:
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("%-14s %-15s %12.4f %12.4f %12.4f %7.2f%% %+7.2f%% %s  %s\n",
				w.name, m.name, q2, q1, q3, 100*spread, 100*drift, bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("A/A FAILED: %d metric × workload pairs outside their bounds\n", bad)
		return 1
	}
	fmt.Println("A/A ok: every end-to-end metric × workload within its bound")
	return 0
}
