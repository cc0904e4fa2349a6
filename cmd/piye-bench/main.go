// Command piye-bench runs the PRIVATE-IYE experiment harness: every table
// and figure of EXPERIMENTS.md, printed as aligned text tables. E1–E4
// regenerate the paper's Figure 1; E5–E12 and E14–E16 measure the
// architecture's design choices.
//
// Usage:
//
//	piye-bench                                  # run everything
//	piye-bench -only E7                         # run one experiment
//	piye-bench -quick                           # smaller workloads
//
// The tier's performance record is not here: `go run ./bench/load`
// measures the workloads declared in BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"privateiye/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run only the named experiment (E1..E16)")
	quick := flag.Bool("quick", false, "smaller workloads")
	flag.Parse()

	type exp struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	wrap := func(f func() (*experiments.Table, error)) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) { return f() }
	}

	sizes := []int{1000, 10000, 100000}
	ks := []int{2, 5, 10, 25, 50}
	psiSizes := []int{100, 300, 1000}
	repeats, workload := 60, 420
	if *quick {
		sizes = []int{500, 2000}
		ks = []int{2, 10}
		psiSizes = []int{60, 200}
		repeats, workload = 12, 140
	}

	exps := []exp{
		{"E1", wrap(experiments.Fig1a)},
		{"E2", wrap(experiments.Fig1b)},
		{"E3", wrap(experiments.Fig1c)},
		{"E4", func() (fmt.Stringer, error) {
			r, err := experiments.Fig1d(!*quick)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E5", wrap(func() (*experiments.Table, error) { return experiments.E5RewriteVsFilter(sizes) })},
		{"E6", wrap(func() (*experiments.Table, error) { return experiments.E6ClusterRouting(workload) })},
		{"E7", wrap(func() (*experiments.Table, error) {
			return experiments.E7KAnonymity(sizes[:len(sizes)-1], ks)
		})},
		{"E8", wrap(func() (*experiments.Table, error) {
			return experiments.E8Perturbation([]float64{0.5, 1, 2, 4, 8, 16})
		})},
		{"E9", wrap(func() (*experiments.Table, error) { return experiments.E9PSI(psiSizes) })},
		{"E10", wrap(func() (*experiments.Table, error) { return experiments.E10Warehouse(repeats) })},
		{"E11", wrap(experiments.E11Audit)},
		{"E12", wrap(func() (*experiments.Table, error) { return experiments.E12Fragmenter(8) })},
		{"E14", wrap(experiments.E14SchemaMatch)},
		{"E15", wrap(experiments.E15ReleaseLedger)},
		{"E16", wrap(func() (*experiments.Table, error) {
			n := 200000
			if *quick {
				n = 20000
			}
			return experiments.E16PlacementAblation(n)
		})},
	}

	ran := 0
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(*only, e.name) {
			continue
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "piye-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "piye-bench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
