// Command load is the repository's tier benchmark: one invocation stands
// up router → 2 mediator shards → 3 sources in-process on loopback HTTP,
// drives one named workload with a fixed number of ops, checks every
// answer against an oracle and prints every metric by name and unit. See
// README.md in this directory.
//
//	go run ./bench/load --workload hot_aggregate --seed 1 --seconds 15 --trace 0
//	go run ./bench/load --workload cold_fanout --seed 1 --seconds 15 --trace 1
//	go run ./bench/load -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setUpRepeats is how many times an end-to-end run sets the tier up; it
// reports the median and measures on the last.
const setUpRepeats = 3

var processStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "hot_aggregate | cold_fanout | ledger_mix | psi_overlap")
	seed := flag.Uint64("seed", 1, "seed for generated data, requester names and op order")
	seconds := flag.Float64("seconds", runSeconds, "run length; op counts are the frozen counts scaled by seconds/15")
	trace := flag.Int("trace", 0, "1 = the per-layer run: an untraced and a traced pass at a quarter of the op count, plus isolated layer calls")
	traceOut := flag.String("trace-out", "", "span file of a -trace 1 run (default .bench_out/spans-<workload>.json)")
	aa := flag.Int("aa", 0, "run every workload N times as child processes, alternating order, and report the spread of every end-to-end metric")
	flag.Parse()

	// More runnable goroutines than cores made CPU-bound workloads swing;
	// the tier is sized for two.
	runtime.GOMAXPROCS(2)

	if *aa > 0 {
		return runAA(*aa, *seed, *seconds)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "load: unknown -workload %q\n", *workloadName)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "load: -seconds must be positive")
		return 2
	}
	scale := *seconds / runSeconds

	var rep *report
	var err error
	if *trace != 0 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_out", "spans-"+w.name+".json")
		}
		rep, err = runPerLayer(w, *seed, scale, out)
	} else {
		rep, err = runEndToEnd(w, *seed, scale, setUpRepeats)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %s: %v\n", w.name, err)
		return 1
	}
	if err := printReport(rep); err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func environmentLine(t *tier) string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s state=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, t.stateFS)
}

// runEndToEnd is the untraced run: set up (repeats times, reporting the
// median), one measured pass, the end-to-end metrics. Throughput, median
// latency and CPU per op are printed too, but as plain lines: this
// machine's speed drifts by a quarter within minutes, so they cannot hold
// a bound and are per-layer rows (README, "timed metrics").
func runEndToEnd(w workload, seed uint64, scale float64, repeats int) (*report, error) {
	var b *bench
	var p phases
	var setUps []time.Duration
	for i := 0; i < repeats; i++ {
		if b != nil {
			b.tearDown()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if b, p, _, err = setUp(w, seed, scale); err != nil {
			return nil, err
		}
		setUps = append(setUps, time.Since(t0))
	}
	defer b.tearDown()
	fmt.Println(environmentLine(b.t))

	res := b.pass(p.measured)
	if res.privacy {
		return nil, errPrivacy
	}
	heap := b.heapLiveMB()

	ops := float64(res.ops)
	rep := &report{
		Correct:   res.failed == 0,
		Attempted: res.ops,
		Failed:    res.failed,
		Metrics: map[string]metric{
			"allocs_per_op":  {float64(res.mallocs) / ops, "1"},
			"wire_kb_per_op": {float64(res.routerWire+res.shardWire+res.sourceWire) / 1000 / ops, "kB"},
			"heap_live_mb":   {heap, "MB"},
			"setup_s":        {sortedCopy(setUps)[len(setUps)/2].Seconds(), "s"},
		},
	}
	if res.failed > 0 {
		fmt.Printf("first failure: %v\n", res.firstFail)
	}
	fmt.Printf("workload %s seed %d: %d ops, %d clients, %.2fs measured; set-ups %v\n",
		w.name, seed, res.ops, w.clients, res.wall.Seconds(), setUps)
	var rounds []string
	for _, q := range res.roundsQPS() {
		rounds = append(rounds, fmt.Sprintf("%.1f", q))
	}
	fmt.Printf("rounds_qps: %s\n", strings.Join(rounds, " "))
	fmt.Printf("unbounded: qps=%.4f p50_ms=%.4f cpu_ms_per_op=%.4f\n", res.qps(), res.p50ms(), res.cpuMsPerOp())
	return rep, nil
}

// printReport prints every metric by name and unit, then the result
// object as the last line of standard output.
func printReport(rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
