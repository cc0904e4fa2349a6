package main

// workload.go defines the four workloads: the generated inputs, the op
// sequences and the oracle each answer is checked against. Everything
// derives from the seed, but the seed never changes how much work an op
// is: the multiset of ages per source, the name lengths, the overlap
// size and each shard's share of the requesters are the same for every
// seed, so counted metrics repeat across seeds.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

const (
	rowsPerSource = 500
	psiOverlap    = 200 // names s0 and s1 share
	minAge        = 18
	ageSpan       = 72 // ages 18..89, all two digits on the wire
)

// Op counts at scale 1 (--seconds = runSeconds), frozen so that each
// measured phase takes about runSeconds on two cores; README explains
// each. A run never measures for a fixed time: --seconds only scales
// these counts.
const (
	runSeconds = 15.0

	hotRequesters = 64
	hotOps        = 64000
	hotPreload    = 16000

	coldRequesters = 64
	coldLiterals   = 60
	coldFirstN     = 20   // thresholds 20..79, two digits each
	coldOps        = 2520 // 42 blocks of 60, see buildCold
	coldPreload    = 300

	ledgerOps     = 12288 // Figure 1a ops; every ledgerEvery-th requester then asks 1b
	ledgerEvery   = 2048
	ledgerPreload = 1024

	psiOps    = 200
	psiWarmup = 32

	// Ops replayed by the isolated in-process calls of a -trace 1 run
	// (before that run's quarter scale).
	isolatedHotOps    = 2000
	isolatedFanoutOps = 400
)

const (
	hotQuery  = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	fig1a     = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
	fig1b     = "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	coldQuery = "FOR //patients/row WHERE //age > %d RETURN //age PURPOSE research MAXLOSS 0.9"
)

type opKind uint8

const (
	opHot     opKind = iota // per-test average; measured ops must be warehouse-served
	opCold                  // WHERE //age > N RETURN //age
	opFig1a                 // per-test mean + sigma + count, recorded in the ledger
	opFig1b                 // per-HMO means; must be refused 403 ledger-combination
	opOverlap               // Mediator.Overlap(s0, s1, name)
)

// op is one request and what its answer must look like.
type op struct {
	kind      opKind
	requester string
	arg       int  // cold: the age threshold
	warehouse bool // hot: the answer must carry warehouse="true"
}

// phases is one workload instance: per-client op lists for each phase.
type phases struct {
	preload  [][]op // before the shard restart
	warm     [][]op // after it: refill caches, re-check preloaded refusals
	measured [][]op
	// traced is the second pass of a -trace 1 run: the measured ops again
	// where re-asking is the workload, a continuation under new keys where
	// it is not. isolated are the (requester, query) pairs the in-process
	// layer calls of that run replay.
	traced   [][]op
	isolated []op
}

type workload struct {
	name    string
	clients int
	// build makes the op lists for one run at the given scale (1 = the
	// frozen counts above). Requesters are drawn so that consecutive ops
	// of a client alternate between the two shards.
	build func(g *generator, scale float64) phases
}

var workloads = []workload{
	{name: "hot_aggregate", clients: 2, build: buildHot},
	{name: "cold_fanout", clients: 1, build: buildCold},
	{name: "ledger_mix", clients: 2, build: buildLedger},
	{name: "psi_overlap", clients: 1, build: buildPSI},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// generator derives every input from the seed.
type generator struct {
	rng   *rand.Rand
	place placement
	seed  uint64
}

func newGenerator(seed uint64, place placement) *generator {
	return &generator{rng: rand.New(rand.NewSource(int64(seed))), place: place, seed: seed}
}

// requester returns a fresh fixed-length requester name owned by the
// given shard (the ring is a pure function of the name, so the harness
// can choose the owner by trying names).
func (g *generator) requester(shardIdx int) string {
	for {
		name := fmt.Sprintf("r%04x-%08x", g.seed&0xffff, g.rng.Uint32())
		if owner, err := g.place.owner(name); err == nil && owner == shardNames[shardIdx] {
			return name
		}
	}
}

// requesters returns n fresh names whose owners alternate shard-a,
// shard-b, …
func (g *generator) requesters(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.requester(i % len(shardNames))
	}
	return out
}

// patients generates the three registries. Source j's ages are a fixed
// multiset in seeded order; s0 and s1 share psiOverlap names.
func generatePatients(seed uint64) [][]patient {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	seen := map[string]bool{}
	name := func() string {
		for {
			b := make([]byte, 12)
			b[0] = 'A' + byte(rng.Intn(26))
			for i := 1; i < len(b); i++ {
				b[i] = 'a' + byte(rng.Intn(26))
			}
			b[6] = ' '
			b[7] = 'A' + byte(rng.Intn(26))
			if s := string(b); !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
	shared := make([]string, psiOverlap)
	for i := range shared {
		shared[i] = name()
	}
	diagnoses := []string{"diabetes", "asthma", "influenza", "migraine"}
	out := make([][]patient, len(sourceNames))
	for j := range out {
		rows := make([]patient, rowsPerSource)
		for i := range rows {
			rows[i] = patient{
				age:       minAge + (i*37+j*11)%ageSpan,
				sex:       "FM"[i%2 : i%2+1],
				zip:       fmt.Sprintf("152%02d", i%40),
				diagnosis: diagnoses[i%len(diagnoses)],
				hmo:       fmt.Sprintf("HMO%d", 1+i%4),
			}
			if j < 2 && i < psiOverlap {
				rows[i].name = shared[i]
			} else {
				rows[i].name = name()
			}
		}
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		out[j] = rows
	}
	return out
}

func split(ops []op, clients int) [][]op {
	out := make([][]op, clients)
	for i, o := range ops {
		out[i%clients] = append(out[i%clients], o)
	}
	return out
}

// buildHot: each client owns half of the requesters (concurrent ops never
// share one) and re-asks the same aggregate in seeded random order.
func buildHot(g *generator, scale float64) phases {
	reqs := g.requesters(hotRequesters)
	perClient := func(total int, warehouse bool) [][]op {
		out := make([][]op, 2)
		for c := range out {
			mine := reqs[c*hotRequesters/2 : (c+1)*hotRequesters/2]
			for i := 0; i < total/2; i++ {
				out[c] = append(out[c], op{kind: opHot, requester: mine[g.rng.Intn(len(mine))], warehouse: warehouse})
			}
		}
		return out
	}
	var p phases
	p.preload = perClient(scaled(hotPreload, scale), false)
	// After the restart the warehouse is empty: one cold ask per
	// requester refills it, so no measured op reaches a source.
	warm := make([]op, len(reqs))
	for i, r := range reqs {
		warm[i] = op{kind: opHot, requester: r}
	}
	p.warm = [][]op{warm[:len(warm)/2], warm[len(warm)/2:]}
	p.measured = perClient(scaled(hotOps, scale), true)
	p.traced = p.measured
	p.isolated = p.measured[0][:min(len(p.measured[0]), isolatedHotOps)]
	return p
}

// buildCold: one seeded cycle over every (requester, literal) pair, so a
// key recurs only after 3 839 others — far beyond the warehouse (256)
// and the sources' plan caches (256). The cycle is 64 blocks of 60 ops;
// every block asks every literal once (in seeded order) and sends 30 ops
// to each shard, so any window of whole blocks ships the same rows for
// every seed. Block b pairs literal l with requester (b+l) mod 64, which
// makes every pair appear exactly once.
func buildCold(g *generator, scale float64) phases {
	reqs := g.requesters(coldRequesters)
	cycle := make([]op, 0, coldRequesters*coldLiterals)
	for _, b := range g.rng.Perm(coldRequesters) {
		for _, l := range g.rng.Perm(coldLiterals) {
			cycle = append(cycle, op{kind: opCold, requester: reqs[(b+l)%coldRequesters], arg: coldFirstN + l})
		}
	}
	pos := 0
	take := func(n int) [][]op {
		out := make([]op, n)
		for i := range out {
			out[i] = cycle[pos%len(cycle)]
			pos++
		}
		return [][]op{out}
	}
	var p phases
	p.preload = take(scaled(coldPreload, scale))
	p.warm = take(scaled(coldLiterals, scale))
	p.measured = take(scaled(coldOps, scale))
	p.traced = take(scaled(coldOps, scale))
	p.isolated = take(scaled(isolatedFanoutOps, scale))[0]
	return p
}

// buildLedger: a stream of fresh requesters, each asking Figure 1a; every
// ledgerEvery-th then asks Figure 1b on the same client, which the ledger
// must refuse. The warm phase re-asks 1b for the preloaded pairs: the
// refusal must survive the restart.
func buildLedger(g *generator, scale float64) phases {
	stream := func(n1a int) (ops [][]op, attackers []string) {
		n1b := max(1, int(math.Round(float64(n1a)/ledgerEvery)))
		every := max(2, n1a/n1b)
		out := make([][]op, 2)
		for i := 0; i < n1a; i++ {
			// Client c's k-th requester lives on shard (k+c)%2: each client
			// alternates shards, and the two start on different ones.
			c, k := i%2, i/2
			r := g.requester((k + c) % 2)
			out[c] = append(out[c], op{kind: opFig1a, requester: r})
			if i%every == every-1 && len(attackers) < n1b {
				out[c] = append(out[c], op{kind: opFig1b, requester: r})
				attackers = append(attackers, r)
			}
		}
		return out, attackers
	}
	var p phases
	var attackers []string
	p.preload, attackers = stream(scaled(ledgerPreload, scale))
	warm := make([]op, len(attackers))
	for i, r := range attackers {
		warm[i] = op{kind: opFig1b, requester: r}
	}
	p.warm = split(warm, 2)
	p.measured, _ = stream(scaled(ledgerOps, scale))
	p.traced, _ = stream(scaled(ledgerOps, scale))
	for i := 0; i < scaled(isolatedFanoutOps, scale); i++ {
		p.isolated = append(p.isolated, op{kind: opFig1a, requester: g.requester(i % 2)})
	}
	return p
}

// buildPSI: the same overlap again and again; the first warm-up op is the
// cold blind.
func buildPSI(g *generator, scale float64) phases {
	n := func(k int) [][]op {
		out := make([]op, k)
		for i := range out {
			out[i] = op{kind: opOverlap}
		}
		return [][]op{out}
	}
	p := phases{warm: n(scaled(psiWarmup, scale)), measured: n(scaled(psiOps, scale))}
	p.traced = p.measured
	return p
}

// --- oracles ----------------------------------------------------------------

// ageAnswer is what "age > n" must integrate to. The sources' mitigation
// for exact ages is decade generalization ("40-49"), so the integrated
// rows are the distinct decades of the matching ages, and every other
// shipped row is reported as an eliminated duplicate.
type ageAnswer struct {
	decades    map[string]bool
	duplicates []byte // the attribute as it must appear: duplicates="1139"
}

// oracle holds the expected answers, computed from the generated tables.
type oracle struct {
	testMean  map[string]float64 // per-test mean rate over every source's rows
	testSigma map[string]float64 // per-test sample standard deviation
	testCount map[string]int
	hmoMean   []float64 // per-HMO means, for the isolated attack measurement
	ages      [coldFirstN + coldLiterals]ageAnswer
	overlap   int
	names     []string // s0's names, the PSI kernel measurement's items
}

func newOracle(data [][]patient) *oracle {
	o := &oracle{testMean: map[string]float64{}, testSigma: map[string]float64{}, testCount: map[string]int{}}
	hmos, tests, m := complianceMatrix()
	for t, test := range tests {
		// Every source holds the same table, so the integrated statistics
		// are over len(sources) copies of each rate.
		var vals []float64
		for range sourceNames {
			for h := range hmos {
				vals = append(vals, m[h][t])
			}
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		ss := 0.0
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		o.testMean[test] = mean
		o.testSigma[test] = math.Sqrt(ss / float64(len(vals)-1))
		o.testCount[test] = len(vals)
	}
	for h := range hmos {
		sum := 0.0
		for _, v := range m[h] {
			sum += v
		}
		o.hmoMean = append(o.hmoMean, sum/float64(len(m[h])))
	}
	for n := coldFirstN; n < coldFirstN+coldLiterals; n++ {
		a := ageAnswer{decades: map[string]bool{}}
		shipped := 0
		for _, rows := range data {
			for _, p := range rows {
				if p.age > n {
					shipped++
					a.decades[fmt.Sprintf("%d-%d", p.age/10*10, p.age/10*10+9)] = true
				}
			}
		}
		a.duplicates = []byte(fmt.Sprintf(`duplicates="%d"`, shipped-len(a.decades)))
		o.ages[n] = a
	}
	in0 := map[string]bool{}
	for _, p := range data[0] {
		in0[p.name] = true
		o.names = append(o.names, p.name)
	}
	seen := map[string]bool{}
	for _, p := range data[1] {
		if in0[p.name] && !seen[p.name] {
			seen[p.name] = true
			o.overlap++
		}
	}
	return o
}

// eachTag calls fn with the text of every <tag>…</tag> in body. The wire
// format is the program's own flat XML; the harness reads it as bytes.
func eachTag(body []byte, tag string, fn func(text []byte)) {
	open, end := []byte("<"+tag+">"), []byte("</"+tag+">")
	for {
		i := bytes.Index(body, open)
		if i < 0 {
			return
		}
		body = body[i+len(open):]
		j := bytes.Index(body, end)
		if j < 0 {
			return
		}
		fn(body[:j])
		body = body[j+len(end):]
	}
}

func tagFloats(body []byte, tag string) []float64 {
	var out []float64
	eachTag(body, tag, func(t []byte) {
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(t)), 64)
		if err != nil {
			v = math.NaN()
		}
		out = append(out, v)
	})
	return out
}

// near allows for the rounding the sources' mitigations apply to
// published aggregates.
func near(got, want float64) bool { return math.Abs(got-want) <= 0.5 }

var warehouseServed = []byte(`warehouse="true"`)

// checkAggregate verifies a per-test aggregate answer: every test once,
// means (and sigmas and counts, when asked for) as computed from the
// tables.
func (o *oracle) checkAggregate(body []byte, withSigma bool) error {
	var tests []string
	eachTag(body, "test", func(t []byte) { tests = append(tests, string(t)) })
	means := tagFloats(body, "avg_rate")
	if len(tests) != len(o.testMean) || len(means) != len(tests) {
		return fmt.Errorf("want %d tests, got %d tests and %d means", len(o.testMean), len(tests), len(means))
	}
	var sigmas, counts []float64
	if withSigma {
		sigmas, counts = tagFloats(body, "sd_rate"), tagFloats(body, "n")
		if len(sigmas) != len(tests) || len(counts) != len(tests) {
			return fmt.Errorf("want %d sigmas and counts, got %d and %d", len(tests), len(sigmas), len(counts))
		}
	}
	for i, test := range tests {
		want, ok := o.testMean[test]
		if !ok {
			return fmt.Errorf("unknown test %q", test)
		}
		if !near(means[i], want) {
			return fmt.Errorf("%s: mean %v, want %v", test, means[i], want)
		}
		if withSigma && (!near(sigmas[i], o.testSigma[test]) || int(counts[i]) != o.testCount[test]) {
			return fmt.Errorf("%s: sigma %v n %v, want %v and %d", test, sigmas[i], counts[i], o.testSigma[test], o.testCount[test])
		}
	}
	return nil
}

// checkAges verifies a cold answer: exactly the decades of the ages above
// n, each once, and every other shipped row eliminated as a duplicate.
func (o *oracle) checkAges(body []byte, n int) error {
	want := o.ages[n]
	seen, bad := map[string]bool{}, ""
	eachTag(body, "age", func(t []byte) {
		if d := string(t); !want.decades[d] || seen[d] {
			bad = d
		} else {
			seen[d] = true
		}
	})
	if bad != "" {
		return fmt.Errorf("age > %d: unexpected or repeated row %q", n, bad)
	}
	if len(seen) != len(want.decades) {
		return fmt.Errorf("age > %d: %d rows, want %d", n, len(seen), len(want.decades))
	}
	if !bytes.Contains(body, want.duplicates) {
		return fmt.Errorf("age > %d: answer lacks %s", n, want.duplicates)
	}
	return nil
}
