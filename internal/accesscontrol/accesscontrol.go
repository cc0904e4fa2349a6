// Package accesscontrol implements the classical security layer the paper
// positions privacy *beyond* (Section 2, "Secured Databases"): role-based
// access control with a role hierarchy, and multi-level security with
// no-read-up / no-write-down rules. The query rewriter consults this layer
// first — "produces a query that will only retrieve the information that
// can be accessed by the requester" — and the privacy machinery then
// handles what access control cannot: secondary analysis by authorized
// users.
package accesscontrol

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"privateiye/internal/xmltree"
)

// Action is an access mode.
type Action int

// Access modes.
const (
	Read Action = iota
	Write
)

// String names the action.
func (a Action) String() string {
	if a == Write {
		return "write"
	}
	return "read"
}

// Role is a named role.
type Role string

// Permission grants an action on items matching a path pattern.
type Permission struct {
	Item   string
	Action Action

	pattern *xmltree.PathPattern
}

// RBAC is a role-based access control store: a role hierarchy (senior
// roles inherit the permissions of junior roles), role-permission grants,
// and subject-role assignments.
type RBAC struct {
	mu       sync.RWMutex
	juniors  map[Role][]Role // role -> directly inherited (junior) roles
	grants   map[Role][]Permission
	assigned map[string][]Role // subject -> roles
	epoch    atomic.Uint64     // bumped by every mutator; see Store.Epoch
}

// NewRBAC returns an empty store.
func NewRBAC() *RBAC {
	return &RBAC{
		juniors:  map[Role][]Role{},
		grants:   map[Role][]Permission{},
		assigned: map[string][]Role{},
	}
}

// AddInheritance makes senior inherit all permissions of junior. Cycles
// are rejected.
func (r *RBAC) AddInheritance(senior, junior Role) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if senior == junior {
		return fmt.Errorf("accesscontrol: role %q cannot inherit itself", senior)
	}
	// Reject if senior is already reachable from junior.
	if r.reachableLocked(junior, senior) {
		return fmt.Errorf("accesscontrol: inheritance %q -> %q would create a cycle", senior, junior)
	}
	r.juniors[senior] = append(r.juniors[senior], junior)
	r.epoch.Add(1)
	return nil
}

// reachableLocked reports whether target is reachable from start through
// the inheritance graph. Caller holds the lock.
func (r *RBAC) reachableLocked(start, target Role) bool {
	if start == target {
		return true
	}
	seen := map[Role]bool{}
	stack := []Role{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == target {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, r.juniors[n]...)
	}
	return false
}

// Grant gives a role a permission.
func (r *RBAC) Grant(role Role, action Action, itemPattern string) error {
	p, err := xmltree.CompilePattern(itemPattern)
	if err != nil {
		return fmt.Errorf("accesscontrol: grant: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.grants[role] = append(r.grants[role], Permission{Item: itemPattern, Action: action, pattern: p})
	r.epoch.Add(1)
	return nil
}

// Assign gives a subject a role.
func (r *RBAC) Assign(subject string, roles ...Role) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assigned[subject] = append(r.assigned[subject], roles...)
	r.epoch.Add(1)
}

// RolesOf returns the subject's directly assigned roles, sorted.
func (r *RBAC) RolesOf(subject string) []Role {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]Role(nil), r.assigned[subject]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// effectiveRoles returns the subject's roles plus everything they inherit.
func (r *RBAC) effectiveRoles(subject string) []Role {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[Role]bool{}
	var stack []Role
	stack = append(stack, r.assigned[subject]...)
	var out []Role
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		stack = append(stack, r.juniors[n]...)
	}
	return out
}

// Can reports whether the subject may perform the action on the item path
// through any effective role.
func (r *RBAC) Can(subject string, action Action, itemPath string) bool {
	for _, role := range r.effectiveRoles(subject) {
		r.mu.RLock()
		perms := r.grants[role]
		r.mu.RUnlock()
		for i := range perms {
			if perms[i].Action == action && perms[i].pattern.Matches(itemPath) {
				return true
			}
		}
	}
	return false
}

// Level is a multi-level security classification.
type Level int

// Security levels, lowest first.
const (
	Public Level = iota
	Internal
	Confidential
	Secret
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Public:
		return "public"
	case Internal:
		return "internal"
	case Confidential:
		return "confidential"
	case Secret:
		return "secret"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// MLS is a multi-level security store: clearances for subjects and
// classifications for item patterns. The paper: "A query with a lower
// level of security cannot read a data item requiring higher level of
// clearance, while a higher security query cannot write a lower security
// data item."
type MLS struct {
	mu         sync.RWMutex
	clearances map[string]Level
	classified []classification
	epoch      atomic.Uint64 // bumped by every mutator; see Store.Epoch
}

type classification struct {
	pattern *xmltree.PathPattern
	level   Level
}

// NewMLS returns an empty store. Unclassified items are Public;
// subjects without a clearance are Public.
func NewMLS() *MLS {
	return &MLS{clearances: map[string]Level{}}
}

// SetClearance records a subject's clearance.
func (m *MLS) SetClearance(subject string, l Level) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearances[subject] = l
	m.epoch.Add(1)
}

// Classify labels items matching the pattern with the level. When several
// patterns match an item, the highest classification wins.
func (m *MLS) Classify(itemPattern string, l Level) error {
	p, err := xmltree.CompilePattern(itemPattern)
	if err != nil {
		return fmt.Errorf("accesscontrol: classify: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.classified = append(m.classified, classification{pattern: p, level: l})
	m.epoch.Add(1)
	return nil
}

// LevelOf returns the classification of an item path.
func (m *MLS) LevelOf(itemPath string) Level {
	m.mu.RLock()
	defer m.mu.RUnlock()
	best := Public
	for _, c := range m.classified {
		if c.pattern.Matches(itemPath) && c.level > best {
			best = c.level
		}
	}
	return best
}

// ClearanceOf returns the subject's clearance.
func (m *MLS) ClearanceOf(subject string) Level {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.clearances[subject]
}

// CanRead applies the simple-security ("no read up") rule.
func (m *MLS) CanRead(subject, itemPath string) bool {
	return m.ClearanceOf(subject) >= m.LevelOf(itemPath)
}

// CanWrite applies the star-property ("no write down") rule.
func (m *MLS) CanWrite(subject, itemPath string) bool {
	return m.ClearanceOf(subject) <= m.LevelOf(itemPath)
}

// Store is the combined Access Control box of Figure 2(a): RBAC and MLS
// checked together. Access requires both to agree.
type Store struct {
	RBAC *RBAC
	MLS  *MLS
}

// NewStore returns a combined store with empty RBAC and MLS layers.
func NewStore() *Store {
	return &Store{RBAC: NewRBAC(), MLS: NewMLS()}
}

// Check reports whether the subject can perform the action on the item.
func (s *Store) Check(subject string, action Action, itemPath string) bool {
	if !s.RBAC.Can(subject, action, itemPath) {
		return false
	}
	if action == Read {
		return s.MLS.CanRead(subject, itemPath)
	}
	return s.MLS.CanWrite(subject, itemPath)
}

// Class returns the subject's access class in canonical form: its
// effective role set, sorted, plus its MLS clearance. Check reads a
// subject only through these two — RBAC.Can through effectiveRoles,
// MLS.CanRead/CanWrite through ClearanceOf — so two subjects of one
// class get the same Check on every (action, item), and a decision
// computed for one may be reused for the other for as long as Epoch
// does not move. A nil store has the single class "".
func (s *Store) Class(subject string) string {
	if s == nil {
		return ""
	}
	roles := s.RBAC.effectiveRoles(subject)
	sort.Slice(roles, func(i, j int) bool { return roles[i] < roles[j] })
	var b []byte
	for _, r := range roles {
		b = strconv.AppendQuote(b, string(r)) // quoted: role names are free text
	}
	b = append(b, '@')
	b = strconv.AppendInt(b, int64(s.MLS.ClearanceOf(subject)), 10)
	return string(b)
}

// Epoch is a counter that grows with every mutation of either layer
// (Grant, Assign, AddInheritance, SetClearance, Classify). Each mutator
// bumps it after the change is in place, so a caller that reads Epoch
// first and the store afterwards, and later finds Epoch unchanged, knows
// that what it derived from the store still holds. 0 for a nil store.
func (s *Store) Epoch() uint64 {
	if s == nil {
		return 0
	}
	return s.RBAC.epoch.Load() + s.MLS.epoch.Load()
}
