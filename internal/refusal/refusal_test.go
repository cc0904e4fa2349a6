package refusal

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// reasoned is a stand-in for a typed refusal error.
type reasoned struct{ r Reason }

func (e *reasoned) Error() string         { return "typed refusal" }
func (e *reasoned) RefusalReason() Reason { return e.r }

func TestClassifyTypedErrors(t *testing.T) {
	if got := Classify(&reasoned{r: AuditOverlap}); got != AuditOverlap {
		t.Fatalf("Reasoner = %v, want %v", got, AuditOverlap)
	}
	// Wrapped Reasoner still classifies.
	wrapped := fmt.Errorf("source hospitalA: %w", &reasoned{r: LedgerCombination})
	if got := Classify(wrapped); got != LedgerCombination {
		t.Fatalf("wrapped Reasoner = %v", got)
	}
	if got := Classify(context.DeadlineExceeded); got != Timeout {
		t.Fatalf("deadline = %v", got)
	}
	if got := Classify(fmt.Errorf("calling: %w", context.Canceled)); got != Canceled {
		t.Fatalf("canceled = %v", got)
	}
	if got := Classify(nil); got != Other {
		t.Fatalf("nil = %v", got)
	}
	if got := Classify(errors.New("the disk caught fire")); got != Other {
		t.Fatalf("unknown = %v", got)
	}
}

// TestClassifyString pins the wire-message vocabulary: these substrings
// are produced by the audit log, the release ledger, the rewriter, the
// optimizer, the mediator's denial classifier and the PIQL parser. If
// one of these cases fails, either the message changed (update the
// producer or this map deliberately) or the classifier regressed.
func TestClassifyString(t *testing.T) {
	cases := []struct {
		msg  string
		want Reason
	}{
		// mediator.denialReason renderings.
		{"timeout: no answer within 10s", Timeout},
		{"canceled: context canceled", Canceled},
		{"skipped: source hospitalB: circuit open (source presumed down)", BreakerOpen},
		// audit.Refusal.Error renderings.
		{"source lab: audit: refused by set-size control: query set has 2 individuals, minimum is 3", AuditSetSize},
		{"audit: refused by overlap control: overlaps a previous query in 4 individuals, maximum is 2", AuditOverlap},
		{"audit: refused by compromise control: answering would determine individual 7 exactly", AuditCompromise},
		// release-ledger renderings.
		{"mediator: refusing release: combined with your earlier rate-by-test statistics it would pin hidden rate values to 99.0% of their prior range (threshold 90.0%)", LedgerCombination},
		{"mediator: refusing release: combined with your earlier rate-by-test statistics it would pin hidden rate values to 91.5% of their prior range (threshold 90.0%), checked at ±0.5", LedgerCombination},
		{"mediator: refusing unverifiable release: the combination check cannot evaluate it against your earlier rate-by-test statistics: nlp: coordinate 3: solver did not converge (violations 0.2, 0)", LedgerUnverifiable},
		{"mediator: refusing unrecordable release: durable: wal fsync: disk gone", Unrecordable},
		{"audit: refusing unrecordable release: durable: log closed", Unrecordable},
		// rewriting, optimization, integration control.
		{"source hospitalA: query fully denied: //row/id: denied by policy", Policy},
		{"mediator: integrated information loss 0.80 exceeds the requester's MAXLOSS 0.50", LossBudget},
		{"optimizer: requester budget 0.10 below the 0.50 loss the required preservation necessarily causes", LossBudget},
		// parsing and routing.
		{"mediator: piql: expected FOR at offset 0, got \"SELECT\"", Parse},
		{"source: bad query: piql: unterminated string at offset 12", Parse},
		{"mediator: no source holds data matching //nothing", NoSource},
		{"mediator: every source refused: a: down; b: down", NoSource},
		// The shard-routing refusal (retry via the router, 503 never 403).
		{"mediator: shard shard-b is not the owner of requester drWho (owner shard-a)", NotOwner},
		{"source front: 503 Service Unavailable: mediator: shard shard-c is not the owner of requester drWho (owner shard-a)", NotOwner},
		// HTTP 503 from a dead node: transport noise, not a known reason.
		{"source hospitalC: 503 Service Unavailable: upstream reset", Other},
		// An older build's admission sheds: no reason names them any more.
		{"mediator: overloaded: 4 queries in flight at limit 4, queue full", Other},
		{"source lab: 429 Too Many Requests: source lab: rate limit exceeded for requester drWho", Other},
		// An older build's replication role refusals: no reason names
		// them any more.
		{"mediator: not primary (role standby, epoch 3): this node mirrors the primary and does not grant releases", Other},
		{"mediator: fenced at epoch 4: a newer primary exists; refusing to grant releases", Other},
	}
	for _, c := range cases {
		if got := ClassifyString(c.msg); got != c.want {
			t.Errorf("ClassifyString(%q) = %v, want %v", c.msg, got, c.want)
		}
	}
}

func TestAllCoversEveryReasonOnce(t *testing.T) {
	seen := map[Reason]bool{}
	for _, r := range All() {
		if seen[r] {
			t.Fatalf("duplicate reason %v", r)
		}
		seen[r] = true
	}
	if len(seen) != 15 {
		t.Fatalf("All() lists %d reasons; update the test when the vocabulary deliberately grows", len(seen))
	}
}

// TestEnumStaysClosed asserts every reason in All() (except the Other
// catch-all and the two context sentinels, which Classify handles by
// errors.Is) has a wire-string exemplar that ClassifyString maps back to
// it. Adding a reason to the enum without classifier coverage fails
// here: a reason the classifier cannot recover from a message would
// silently degrade to Other the moment the refusal crosses an HTTP hop.
func TestEnumStaysClosed(t *testing.T) {
	exemplar := map[Reason]string{
		Timeout:            "timeout: no answer within 10s",
		Canceled:           "canceled: context canceled",
		BreakerOpen:        "circuit open (source presumed down)",
		Policy:             "query fully denied: //row/id: denied by policy",
		AuditSetSize:       "audit: refused by set-size control: query set has 2 individuals",
		AuditOverlap:       "audit: refused by overlap control: overlaps a previous query",
		AuditCompromise:    "audit: refused by compromise control: answering would determine individual 7",
		LedgerCombination:  "refusing release: combined with your earlier rate-by-test statistics",
		LedgerUnverifiable: "refusing unverifiable release: the combination check cannot evaluate it",
		Unrecordable:       "refusing unrecordable release: durable: wal fsync: disk gone",
		LossBudget:         "integrated information loss 0.80 exceeds the requester's MAXLOSS 0.50",
		Parse:              "piql: expected FOR at offset 0",
		NoSource:           "no source holds data matching //nothing",
		NotOwner:           "shard shard-b is not the owner of requester drWho (owner shard-a)",
	}
	for _, r := range All() {
		if r == Other {
			continue
		}
		msg, ok := exemplar[r]
		if !ok {
			t.Errorf("reason %q has no wire-string exemplar: add one here and a ClassifyString case, or the reason is lost across HTTP hops", r)
			continue
		}
		if got := ClassifyString(msg); got != r {
			t.Errorf("ClassifyString(%q) = %v, want %v", msg, got, r)
		}
	}
	for r := range exemplar {
		found := false
		for _, a := range All() {
			if a == r {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("exemplar for %q is not in All()", r)
		}
	}
}
