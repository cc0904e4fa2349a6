package piql

import (
	"testing"

	"privateiye/internal/xmltree"
)

// FuzzParse feeds arbitrary text to the PIQL parser, which sits directly
// on the untrusted query path of every source and the mediator. Three
// properties: the parser never panics, every accepted query re-parses
// from its own String() form, and that canonical form is a fixed point
// (String of the re-parse is byte-identical).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"FOR //patient WHERE //diagnosis = 'diabetes' RETURN //name, //age PURPOSE research MAXLOSS 0.3",
		"FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n, AVG(//age) AS avg_age, STDDEV(//visits//cost)",
		"FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9",
		"FOR //x RETURN //y ORDER BY //y DESC LIMIT 10",
		"FOR //a/b WHERE //c > 40 AND //d = 'x' OR //e < 2 RETURN //f",
		"FOR //x",
		"FOR //x RETURN //y MAXLOSS 2",
		"FOR",
		"",
		"FOR //x WHERE //y CONTAINS 'a''b' RETURN //z",
		"for //x return //y purpose research",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		canonical := q.String()
		q2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form of accepted query does not re-parse:\n  input: %q\n  canonical: %q\n  error: %v", src, canonical, err)
		}
		if again := q2.String(); again != canonical {
			t.Fatalf("String() is not a fixed point:\n  first:  %q\n  second: %q", canonical, again)
		}
	})
}

// FuzzResultFromNode feeds the mediator's reader of source answers an
// arbitrary result document and an arbitrary multiplicity list; both come
// from another administrative domain. It never panics, and a result it
// does return has no multiplicities or exactly one, at least 1, per row,
// standing for no more than MaxRows rows in all.
func FuzzResultFromNode(f *testing.F) {
	f.Add(`<result><row><age>40-49</age></row><row><age>50-59</age></row></result>`, "57 3")
	f.Add(`<result><row><a>1</a><b>2</b></row><row><b>3</b></row><other/></result>`, "")
	f.Add(`<result/>`, "1")
	f.Add(`<result><row/></result>`, "0")
	f.Add(`<result><row><a>x</a></row></result>`, "9223372036854775807")
	f.Add(`<result><row><a>x</a></row><row><a>x</a></row></result>`, "16777215 2")
	f.Add(`<answer counts="1"><result/></answer>`, " 1  -1 x")
	f.Fuzz(func(t *testing.T, doc, mult string) {
		n, err := xmltree.ParseString(doc)
		if err != nil {
			return
		}
		res, err := ResultFromNode(n, mult)
		if err != nil {
			return
		}
		if len(res.Mult) != 0 && len(res.Mult) != len(res.Rows) {
			t.Fatalf("%d multiplicities for %d rows", len(res.Mult), len(res.Rows))
		}
		total := 0
		for i, m := range res.Mult {
			if m < 1 || m > MaxRows-total {
				t.Fatalf("multiplicity %d of %v accepted from %q", i, res.Mult, mult)
			}
			total += m
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Fatalf("row of %d cells under %d columns", len(row), len(res.Columns))
			}
		}
	})
}
