// Package refusal normalizes the many ways the pipeline can say "no"
// into a small, closed enum. Before it existed, the audit log and the
// release ledger returned bare formatted strings; a metrics layer
// counting refusals by reason would have minted a new label per message
// (unbounded cardinality) and every rewording would have broken
// dashboards. The enum is the stable vocabulary: typed errors classify
// themselves via the Reasoner interface, and denials that crossed an
// HTTP boundary (where only the message survives) are classified by
// their stable prefixes.
//
// The package is a leaf — it imports only the standard library — so
// every layer (audit, mediator, source, obs consumers) can share it
// without cycles.
package refusal

import (
	"context"
	"errors"
	"strings"
)

// Reason is one normalized refusal reason. The string form is the
// metric label and the trace-outcome suffix.
type Reason string

// The closed reason vocabulary. Adding a value here is an interface
// change: tests pin the mapping, and DESIGN.md §9 inventories the
// labels.
const (
	// Timeout: a source missed its per-call deadline.
	Timeout Reason = "timeout"
	// Canceled: the caller abandoned the query mid-flight.
	Canceled Reason = "canceled"
	// BreakerOpen: the circuit breaker skipped a presumed-dead source.
	BreakerOpen Reason = "breaker-open"
	// Policy: query rewriting denied every return item (source policy,
	// preference or ACL).
	Policy Reason = "policy-denied"
	// AuditSetSize: the sequence auditor's query-set-size control.
	AuditSetSize Reason = "audit-set-size"
	// AuditOverlap: the sequence auditor's overlap control.
	AuditOverlap Reason = "audit-overlap"
	// AuditCompromise: the sequence auditor's exact linear-system audit.
	AuditCompromise Reason = "audit-compromise"
	// LedgerCombination: the release ledger's cross-query combination
	// attack check.
	LedgerCombination Reason = "ledger-combination"
	// LedgerUnverifiable: the release ledger could not evaluate the new
	// release against an earlier one (no consistent matrix, or no
	// convergence), and the release failed closed.
	LedgerUnverifiable Reason = "ledger-unverifiable"
	// Unrecordable: a durable store could not log the disclosure, and
	// the release failed closed.
	Unrecordable Reason = "unrecordable"
	// LossBudget: integrated information loss exceeded the requester's
	// MAXLOSS, or the optimizer could not meet the rewrite budget.
	LossBudget Reason = "loss-budget"
	// Parse: the PIQL text did not parse.
	Parse Reason = "parse-error"
	// NoSource: no source holds data matching the query, or every
	// source failed.
	NoSource Reason = "no-source"
	// NotOwner: in a sharded mediator tier, the requester hashes to a
	// different shard — this shard's ledger does not hold the
	// requester's release history, so granting here could miss a
	// combination the owning shard would refuse. Fail-closed and
	// retryable via the router (503, never 403): the query is fine, it
	// just knocked on the wrong door.
	NotOwner Reason = "not-owner"
	// Other: an error outside the closed vocabulary (transport faults,
	// internal errors). A growing "other" count is a signal to look at
	// the traces, not to mint labels.
	Other Reason = "other"
)

// String returns the metric-label form.
func (r Reason) String() string { return string(r) }

// All lists every reason, for tests and for pre-registering counter
// series so /metrics shows zero counts rather than absent series.
func All() []Reason {
	return []Reason{
		Timeout, Canceled, BreakerOpen, Policy,
		AuditSetSize, AuditOverlap, AuditCompromise,
		LedgerCombination, LedgerUnverifiable, Unrecordable, LossBudget,
		Parse, NoSource, NotOwner, Other,
	}
}

// Reasoner is implemented by typed refusal errors that know their own
// reason (audit.Refusal, mediator.CombinationRefusal).
type Reasoner interface {
	RefusalReason() Reason
}

// Classify maps an error to its Reason: typed errors first (Reasoner
// anywhere in the chain, then the context sentinels), the stable string
// vocabulary as a fallback for errors that crossed a process boundary.
func Classify(err error) Reason {
	if err == nil {
		return Other
	}
	var rr Reasoner
	if errors.As(err, &rr) {
		return rr.RefusalReason()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Timeout
	}
	if errors.Is(err, context.Canceled) {
		return Canceled
	}
	return ClassifyString(err.Error())
}

// ClassifyString maps a refusal message to its Reason. Denial reasons
// recorded by the mediator (and anything read back from the HTTP wire)
// are plain strings; the substrings matched here are part of each
// error's wire contract and are pinned by TestClassifyString.
func ClassifyString(s string) Reason {
	switch {
	// First: the message quotes the solver's error, whose wording is
	// not this vocabulary's.
	case strings.Contains(s, "refusing unverifiable release"):
		return LedgerUnverifiable
	case strings.Contains(s, "timeout:") || strings.Contains(s, "deadline exceeded"):
		return Timeout
	case strings.Contains(s, "canceled:") || strings.Contains(s, "context canceled"):
		return Canceled
	case strings.Contains(s, "circuit open"):
		return BreakerOpen
	case strings.Contains(s, "refused by set-size control"):
		return AuditSetSize
	case strings.Contains(s, "refused by overlap control"):
		return AuditOverlap
	case strings.Contains(s, "refused by compromise control"):
		return AuditCompromise
	case strings.Contains(s, "refusing unrecordable release"):
		return Unrecordable
	case strings.Contains(s, "combined with your earlier"):
		return LedgerCombination
	case strings.Contains(s, "fully denied"):
		return Policy
	case strings.Contains(s, "exceeds the requester's MAXLOSS"),
		strings.Contains(s, "requester budget"):
		return LossBudget
	case strings.Contains(s, "piql:") || strings.Contains(s, "bad query"):
		return Parse
	case strings.Contains(s, "no source holds data") || strings.Contains(s, "every source refused"):
		return NoSource
	// The shard-routing refusal: the wrong door.
	case strings.Contains(s, "not the owner of requester"):
		return NotOwner
	default:
		return Other
	}
}
