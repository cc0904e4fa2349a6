package experiments

import (
	"crypto/rand"
	"fmt"
	"strconv"
	"time"

	"privateiye/internal/audit"
	"privateiye/internal/clinical"
	"privateiye/internal/core"
	"privateiye/internal/linkage"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/schemamatch"
	"privateiye/internal/source"
)

// E9PSI measures private set intersection and private fuzzy linkage at
// several set sizes against the plaintext baseline.
func E9PSI(sizes []int) (*Table, error) {
	t := &Table{
		Title:  "E9: private dedup (PSI + Bloom linkage) vs plaintext dedup",
		Header: []string{"set size", "overlap", "psi time", "psi found", "bloom F1", "plaintext time"},
	}
	for _, n := range sizes {
		gen := clinical.NewGenerator(uint64(n) * 31)
		// Build two sets with 30% overlap.
		overlap := n * 3 / 10
		var setA, setB []string
		for i := 0; i < n; i++ {
			setA = append(setA, fmt.Sprintf("patient-%d", i))
		}
		for i := 0; i < n; i++ {
			if i < overlap {
				setB = append(setB, setA[i])
			} else {
				setB = append(setB, fmt.Sprintf("other-%d", i))
			}
		}

		a, err := psi.NewParty(psi.X25519Suite(), rand.Reader)
		if err != nil {
			return nil, err
		}
		b, err := psi.NewParty(psi.X25519Suite(), rand.Reader)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, err := psi.Intersect(a, b, setA, setB)
		if err != nil {
			return nil, err
		}
		tPSI := time.Since(start)
		if len(idx) != overlap {
			return nil, fmt.Errorf("experiments: E9 psi found %d, want %d", len(idx), overlap)
		}

		// Bloom fuzzy linkage with corrupted names.
		enc, err := linkage.NewEncoder(1000, 20, 2, []byte("e9-salt"))
		if err != nil {
			return nil, err
		}
		var left, right []linkage.EncodedRecord
		truth := map[string]string{}
		for i := 0; i < n; i++ {
			name := gen.Name() + " " + strconv.Itoa(i)
			left = append(left, enc.EncodeRecord(fmt.Sprintf("L%d", i), name))
			if i < overlap {
				right = append(right, enc.EncodeRecord(fmt.Sprintf("R%d", i), gen.CorruptName(name)))
				truth[fmt.Sprintf("L%d", i)] = fmt.Sprintf("R%d", i)
			}
		}
		pairs, err := linkage.Match(left, right, 0.7)
		if err != nil {
			return nil, err
		}
		q := linkage.Evaluate(pairs, truth)

		// Plaintext baseline: hash-set intersection.
		start = time.Now()
		inA := map[string]bool{}
		for _, s := range setA {
			inA[s] = true
		}
		found := 0
		for _, s := range setB {
			if inA[s] {
				found++
			}
		}
		tPlain := time.Since(start)
		if found != overlap {
			return nil, fmt.Errorf("experiments: E9 plaintext found %d", found)
		}

		t.Rows = append(t.Rows, []string{
			strconv.Itoa(n), strconv.Itoa(overlap), ms(tPSI),
			strconv.Itoa(len(idx)), f3(q.F1), ms(tPlain),
		})
	}
	t.Notes = append(t.Notes,
		"psi runs the x25519 suite, the fleet default",
		"bloom F1 is fuzzy matching under name corruption; psi/plaintext are exact-id")
	return t, nil
}

// E10Warehouse measures the hybrid mediation crossover: a repeated-query
// workload served with and without warehousing.
func E10Warehouse(repeats int) (*Table, error) {
	build := func(capacity int) (*core.System, error) {
		g := clinical.NewGenerator(17)
		cat := relational.NewCatalog()
		tab, err := g.Patients("patients", 5000, 4)
		if err != nil {
			return nil, err
		}
		if err := cat.Add(tab); err != nil {
			return nil, err
		}
		pol, err := policy.NewPolicy("s", policy.Deny,
			policy.Rule{Item: "//patients/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
			policy.Rule{Item: "//patients/row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
		)
		if err != nil {
			return nil, err
		}
		return core.NewSystem(core.SystemConfig{
			Sources:  []source.Config{{Name: "s", Catalog: cat, Policy: pol}},
			Mediator: mediator.Config{WarehouseCapacity: capacity},
		})
	}
	queries := []string{
		"FOR //patients/row WHERE //age > 60 RETURN //age PURPOSE research MAXLOSS 0.9",
		"FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9",
		"FOR //patients/row WHERE //sex = 'F' RETURN //age PURPOSE research MAXLOSS 0.9",
	}
	run := func(sys *core.System) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < repeats; i++ {
			q := queries[i%len(queries)]
			if _, err := sys.Query(q, "epidemiologist"); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	virtual, err := build(0)
	if err != nil {
		return nil, err
	}
	tVirtual, err := run(virtual)
	if err != nil {
		return nil, err
	}
	hybrid, err := build(64)
	if err != nil {
		return nil, err
	}
	tHybrid, err := run(hybrid)
	if err != nil {
		return nil, err
	}
	hits, misses, _ := hybrid.Mediator().WarehouseStats()

	t := &Table{
		Title:  "E10: hybrid warehousing vs pure virtual querying",
		Header: []string{"mode", "total", "per-query", "warehouse hits"},
		Rows: [][]string{
			{"virtual", ms(tVirtual), ms(tVirtual / time.Duration(repeats)), "-"},
			{"hybrid", ms(tHybrid), ms(tHybrid / time.Duration(repeats)),
				fmt.Sprintf("%d/%d", hits, hits+misses)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d queries over 3 distinct shapes, 5000-row source; speedup %.1fx",
			repeats, float64(tVirtual)/float64(tHybrid)))
	return t, nil
}

// E11Audit plays an adaptive tracker against three auditor
// configurations and reports whether the victim's value was determined.
func E11Audit() (*Table, error) {
	const population = 100
	configs := []struct {
		name string
		cfg  audit.Config
	}{
		{"no control", audit.Config{Population: population, MaxOverlap: -1}},
		{"set-size k=4", audit.Config{Population: population, MinSetSize: 4, MaxOverlap: -1}},
		{"overlap r=1", audit.Config{Population: population, MinSetSize: 4, MaxOverlap: 1}},
		{"exact audit", audit.Config{Population: population, MinSetSize: 2, MaxOverlap: -1, Exact: true}},
	}
	t := &Table{
		Title:  "E11: sequence auditing against the Dobkin-Jones-Lipton tracker",
		Header: []string{"control", "queries granted", "queries refused", "victim compromised"},
	}
	for _, c := range configs {
		a, err := audit.NewAuditor(c.cfg)
		if err != nil {
			return nil, err
		}
		// Tracker: Sum{0..3} then Sum{1..4}; their difference isolates
		// individual 0 vs 4; iterating pins individual 0.
		attempts := [][]int{
			{0, 1, 2, 3},
			{1, 2, 3, 4},
			{0, 1, 2, 4},
			{0, 1, 3, 4},
			{0, 2, 3, 4},
			{0}, // the direct ask, for the no-control row
		}
		granted := 0
		for _, q := range attempts {
			if err := a.Commit(q); err == nil {
				granted++
			}
		}
		g, r := a.Stats()
		// Compromise: with {0,1,2,3} and {1,2,3,4} and {0,1,2,4},
		// {0,1,3,4}, {0,2,3,4} all answered, individual values are
		// solvable; the exact audit refuses before that point. We declare
		// compromise when 5 of the overlapping sums (or the direct ask)
		// were all granted.
		compromised := granted >= 5
		t.Rows = append(t.Rows, []string{
			c.name, strconv.Itoa(g), strconv.Itoa(r), strconv.FormatBool(compromised),
		})
	}
	return t, nil
}

// E12Fragmenter measures source routing: the fraction of sources
// contacted that actually held relevant data, against broadcast.
func E12Fragmenter(nSources int) (*Table, error) {
	var eps []source.Endpoint
	for i := 0; i < nSources; i++ {
		g := clinical.NewGenerator(uint64(i) + 1)
		cat := relational.NewCatalog()
		// Half the sources hold patients, half hold outbreak events.
		var tabName string
		if i%2 == 0 {
			tab, err := g.Patients("patients", 50, 2)
			if err != nil {
				return nil, err
			}
			if err := cat.Add(tab); err != nil {
				return nil, err
			}
			tabName = "patients"
		} else {
			tab, err := g.Outbreak("events", 10)
			if err != nil {
				return nil, err
			}
			if err := cat.Add(tab); err != nil {
				return nil, err
			}
			tabName = "events"
		}
		_ = tabName
		pol, err := policy.NewPolicy(fmt.Sprintf("s%d", i), policy.Allow)
		if err != nil {
			return nil, err
		}
		src, err := source.New(source.Config{Name: fmt.Sprintf("s%d", i), Catalog: cat, Policy: pol})
		if err != nil {
			return nil, err
		}
		ep, err := source.NewLocal(src, nil, nil)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	med, err := mediator.New(mediator.Config{Endpoints: eps})
	if err != nil {
		return nil, err
	}
	in, err := med.Query("FOR //patients/row WHERE //age > 50 RETURN //age PURPOSE research MAXLOSS 1", "r")
	if err != nil {
		return nil, err
	}
	patientSources := (nSources + 1) / 2
	t := &Table{
		Title:  "E12: query fragmentation and source routing",
		Header: []string{"sources", "holding data", "contacted", "broadcast would contact"},
		Rows: [][]string{{
			strconv.Itoa(nSources),
			strconv.Itoa(patientSources),
			strconv.Itoa(len(in.Answered) + len(in.Denied)),
			strconv.Itoa(nSources),
		}},
	}
	if got := len(in.Answered) + len(in.Denied); got != patientSources {
		t.Notes = append(t.Notes, fmt.Sprintf("WARNING: routing contacted %d, expected %d", got, patientSources))
	} else {
		t.Notes = append(t.Notes, "routing contacted exactly the sources whose summaries match the FOR pattern")
	}
	return t, nil
}

// E14SchemaMatch compares plaintext learning-based matching with the
// hashed private mode over renamed clinical vocabularies.
func E14SchemaMatch() (*Table, error) {
	m := schemamatch.NewMatcher()
	// Ground truth: left name -> right name, a mix of exact, synonym and
	// morphological renames.
	pairs := [][2]string{
		{"dob", "dateOfBirth"},
		{"name", "patient_name"},
		{"zip", "zipCode"},
		{"sex", "gender"},
		{"diagnosis", "dx"},
		{"age", "age"},
		{"phone", "telephone"},
		{"hmo", "insurer"},
	}
	var left, right []schemamatch.FieldProfile
	var leftNames, rightNames []string
	for _, p := range pairs {
		left = append(left, schemamatch.FieldProfile{Name: p[0]})
		right = append(right, schemamatch.FieldProfile{Name: p[1]})
		leftNames = append(leftNames, p[0])
		rightNames = append(rightNames, p[1])
	}
	plain := m.Match(left, right)
	plainHit := 0
	want := map[string]string{}
	for _, p := range pairs {
		want[p[0]] = p[1]
	}
	for _, c := range plain {
		if want[c.Left] == c.Right {
			plainHit++
		}
	}
	salt := []byte("e14")
	hashed := schemamatch.MatchHashed(
		schemamatch.HashVocabulary(salt, leftNames),
		schemamatch.HashVocabulary(salt, rightNames),
	)
	hashedHit := 0
	for _, hp := range hashed {
		if want[leftNames[hp[0]]] == rightNames[hp[1]] {
			hashedHit++
		}
	}
	t := &Table{
		Title:  "E14: schema matching accuracy, plaintext vs private (hashed) mode",
		Header: []string{"mode", "correct", "of", "recall"},
		Rows: [][]string{
			{"plaintext learning-based", strconv.Itoa(plainHit), strconv.Itoa(len(pairs)),
				f3(float64(plainHit) / float64(len(pairs)))},
			{"private hashed-equality", strconv.Itoa(hashedHit), strconv.Itoa(len(pairs)),
				f3(float64(hashedHit) / float64(len(pairs)))},
		},
	}
	t.Notes = append(t.Notes,
		"private mode can only match equal normalized names: the accuracy cost of not revealing vocabularies")
	return t, nil
}
