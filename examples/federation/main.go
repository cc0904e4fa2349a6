// Federation: sources and mediator as separate HTTP services.
//
// This example boots two source nodes and a mediation engine on localhost
// ports, then drives them exactly as the cmd/ tools would — everything
// over the wire, with fuzzy private deduplication of a patient shared
// under slightly different spellings.
//
// Run: go run ./examples/federation
package main

import (
	"context"

	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

var salt = []byte("federation-demo-salt")

func main() {
	// Boot two hospital nodes (httptest keeps the example self-contained;
	// cmd/piye-source serves the identical handler on a real port).
	nodeA := bootSource("hospitalA", []patient{
		{"Jonathan Smith", 62, "diabetes"},
		{"Priya Patel", 45, "asthma"},
		{"Wei Chen", 71, "hypertension"},
	})
	defer nodeA.Close()
	nodeB := bootSource("hospitalB", []patient{
		{"Jonathon Smith", 62, "diabetes"}, // the same person, misspelled
		{"Rosa Diaz", 58, "arthritis"},
	})
	defer nodeB.Close()

	// The mediator connects to both over HTTP.
	med, err := mediator.New(mediator.Config{
		Endpoints: []source.Endpoint{
			source.NewClient(nodeA.URL, "hospitalA"),
			source.NewClient(nodeB.URL, "hospitalB"),
		},
		LinkageSalt:    salt,
		DedupColumn:    "name",
		DedupThreshold: 0.75,
	})
	if err != nil {
		log.Fatal(err)
	}
	medSrv := httptest.NewServer(mediator.NewHandler(med))
	defer medSrv.Close()

	fmt.Printf("federation up: %s, %s behind mediator %s\n\n", nodeA.URL, nodeB.URL, medSrv.URL)

	// Query through the mediator's HTTP API, like cmd/piye-query does.
	in := ask(medSrv.URL, "dr-lee",
		"FOR //patient WHERE //age >= 55 RETURN //name, //age, //diagnosis PURPOSE treatment MAXLOSS 0.9")
	fmt.Printf("integrated from %v, %d duplicates removed by private linkage:\n", in.Answered, in.Duplicates)
	for _, row := range in.Result.Rows {
		fmt.Printf("  %v\n", row)
	}
	if in.Duplicates != 1 {
		log.Fatalf("expected the misspelled duplicate to collapse, got %d", in.Duplicates)
	}

	// Cross-node private intersection, relayed by the mediator.
	n, err := med.Overlap(context.Background(), "hospitalA", "hospitalB", "diagnosis")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiagnosis vocabularies shared across nodes (PSI over HTTP): %d\n", n)
}

type patient struct {
	name      string
	age       int
	diagnosis string
}

func bootSource(name string, patients []patient) *httptest.Server {
	root := xmltree.NewElem("registry")
	for _, p := range patients {
		root.Append(xmltree.NewElem("patient").Append(
			xmltree.NewText("name", p.name),
			xmltree.NewText("age", fmt.Sprint(p.age)),
			xmltree.NewText("diagnosis", p.diagnosis),
		))
	}
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//patient//*", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		log.Fatal(err)
	}
	// Treatment-context deployments trust identifier disclosure under the
	// policy above, so this node's preservation KB softens the default
	// attribute-disclosure mitigation to age banding only — the KB is
	// per-source configuration, exactly as the paper's Privacy
	// Preservation store is.
	registry := preserve.DefaultRegistry()
	ageOnly := preserve.Pipeline{Steps: []preserve.Technique{
		preserve.Generalize{Column: "age", Hierarchy: preserve.AgeHierarchy(), Level: 1},
	}}
	registry.Register(preserve.BreachAttribute, ageOnly)
	registry.Register(preserve.BreachIdentity, ageOnly)
	src, err := source.New(source.Config{Name: name, Docs: []*xmltree.Node{root}, Policy: pol, Registry: registry})
	if err != nil {
		log.Fatal(err)
	}
	local, err := source.NewLocal(src, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	return httptest.NewServer(source.NewHandler(local))
}

func ask(medURL, requester, query string) *mediator.Integrated {
	req, err := http.NewRequest("POST", medURL+"/query", strings.NewReader(query))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("X-Requester", requester)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	node, err := xmltree.Parse(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	in, err := mediator.IntegratedFromNode(node)
	if err != nil {
		log.Fatal(err)
	}
	return in
}
