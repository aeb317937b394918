package query

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"cqjoin/internal/relation"
)

// Side selects one side of a query's join condition.
type Side int

const (
	// SideLeft is the α side of the join condition α = β.
	SideLeft Side = iota
	// SideRight is the β side.
	SideRight
)

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == SideLeft {
		return SideRight
	}
	return SideLeft
}

// String names the side.
func (s Side) String() string {
	if s == SideLeft {
		return "left"
	}
	return "right"
}

// Type classifies queries per Section 3.2.
type Type int

const (
	// T1 queries have a single attribute on each side of the join condition
	// and the equality has a unique solution; all four algorithms evaluate
	// them.
	T1 Type = iota
	// T2 queries involve multiple attributes or non-invertible expressions
	// on some side; only DAI-V evaluates them.
	T2
)

// String names the type.
func (t Type) String() string {
	if t == T1 {
		return "T1"
	}
	return "T2"
}

// Query is a continuous two-way equi-join query. Build one with Parse, then
// attach subscriber identity with WithIdentity before indexing it.
type Query struct {
	key          string
	subscriber   string
	subscriberIP string
	insT         int64

	sel      []Attr
	left     Expr
	right    Expr
	leftRel  *relation.Schema
	rightRel *relation.Schema
	filters  []Predicate
	text     string
	plan     *plan // built on first use, shared by every With* copy

	// wireSize memoizes the query's wire-encoded length; 0 means not yet
	// computed. Accessed atomically because the query value embedded in
	// in-flight messages is sized from concurrent cascade workers. The
	// With* copy constructors reset it, since they change encoded fields.
	wireSize int64
}

// WithIdentity returns a copy of q carrying the subscriber's node key and
// IP plus the query's unique key, Key(q), formed per Section 3.2 by
// concatenating a positive integer to the subscriber's key.
func (q *Query) WithIdentity(subscriberKey, subscriberIP string, seq int) *Query {
	cp := *q
	cp.subscriber = subscriberKey
	cp.subscriberIP = subscriberIP
	cp.key = fmt.Sprintf("%s#%d", subscriberKey, seq)
	cp.wireSize = 0
	return &cp
}

// WithRestoredIdentity returns a copy of q carrying a previously assigned
// key, subscriber identity and insertion time, used when a query is
// decoded from its wire form and its original Key(q) must be preserved.
func (q *Query) WithRestoredIdentity(key, subscriberKey, subscriberIP string, insT int64) *Query {
	cp := *q
	cp.key = key
	cp.subscriber = subscriberKey
	cp.subscriberIP = subscriberIP
	cp.insT = insT
	cp.wireSize = 0
	return &cp
}

// WithInsT returns a copy of q stamped with insertion time insT
// (Section 3.2: only tuples with pubT(t) >= insT(q) can trigger q).
func (q *Query) WithInsT(insT int64) *Query {
	cp := *q
	cp.insT = insT
	cp.wireSize = 0
	return &cp
}

// Key returns Key(q), or "" before WithIdentity.
func (q *Query) Key() string { return q.key }

// Subscriber returns the key of the node that posed the query.
func (q *Query) Subscriber() string { return q.subscriber }

// SubscriberIP returns the (simulated) IP address of the subscriber.
func (q *Query) SubscriberIP() string { return q.subscriberIP }

// InsT returns the query's insertion time.
func (q *Query) InsT() int64 { return q.insT }

// Text returns the original SQL text.
func (q *Query) Text() string { return q.text }

// CachedWireSize returns the memoized wire-encoding length, or 0 when it
// has not been computed. The encoded fields are immutable outside the
// With* copy constructors, which reset the memo on their copies.
func (q *Query) CachedWireSize() int { return int(atomic.LoadInt64(&q.wireSize)) }

// SetCachedWireSize memoizes the query's wire-encoding length.
func (q *Query) SetCachedWireSize(n int) { atomic.StoreInt64(&q.wireSize, int64(n)) }

// Select returns the projection list.
func (q *Query) Select() []Attr { return append([]Attr(nil), q.sel...) }

// Expr returns the join-condition expression of the given side.
func (q *Query) Expr(s Side) Expr {
	if s == SideLeft {
		return q.left
	}
	return q.right
}

// Rel returns the relation schema of the given side.
func (q *Query) Rel(s Side) *relation.Schema {
	if s == SideLeft {
		return q.leftRel
	}
	return q.rightRel
}

// Filters returns the selection predicates conjoined with the join.
func (q *Query) Filters() []Predicate { return append([]Predicate(nil), q.filters...) }

// FiltersFor returns the selection predicates over the named relation.
func (q *Query) FiltersFor(rel string) []Predicate {
	var out []Predicate
	for _, f := range q.filters {
		if f.Rel == rel {
			out = append(out, f)
		}
	}
	return out
}

// FiltersPass reports whether the tuple satisfies every selection predicate
// over its relation.
func (q *Query) FiltersPass(t *relation.Tuple) (bool, error) {
	for _, f := range q.filters {
		if f.Rel != t.Relation() {
			continue
		}
		ok, err := f.Eval(t)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// SideFor returns the side whose relation is rel.
func (q *Query) SideFor(rel string) (Side, error) {
	switch rel {
	case q.leftRel.Name():
		return SideLeft, nil
	case q.rightRel.Name():
		return SideRight, nil
	default:
		return 0, fmt.Errorf("query: relation %s is not part of %s ⋈ %s", rel, q.leftRel.Name(), q.rightRel.Name())
	}
}

// Type classifies the query as T1 or T2 per Section 3.2.
func (q *Query) Type() Type {
	if Invertible(q.left) && Invertible(q.right) {
		return T1
	}
	return T2
}

// SideAttrs returns the distinct attribute names the given side's
// expression references, candidates for the role of index attribute. The
// slice is shared by every copy of the query; callers must not modify it.
func (q *Query) SideAttrs(s Side) []string { return q.planned().sideAttrs[s] }

// SingleAttr returns the side's unique join attribute for a T1-style side,
// or an error when the side references several attributes.
func (q *Query) SingleAttr(s Side) (string, error) {
	attrs := q.SideAttrs(s)
	if len(attrs) != 1 {
		return "", fmt.Errorf("query: %s side of %q references %d attributes", s, q.ConditionKey(), len(attrs))
	}
	return attrs[0], nil
}

// EvalSide computes the side's expression over a tuple of that side's
// relation — the valJC(q, t) of Section 4.5.
func (q *Query) EvalSide(s Side, t *relation.Tuple) (relation.Value, error) {
	return q.Expr(s).Eval(t)
}

// InvertSide solves the side's expression for its single attribute given
// the value the expression must produce — the valDA(q, t) computation of
// Section 4.3.2: the value attribute DisA(q) must take so the join
// condition holds.
func (q *Query) InvertSide(s Side, target relation.Value) (relation.Value, error) {
	return Invert(q.Expr(s), target)
}

// ConditionKey renders the join condition canonically. Queries with equal
// ConditionKey have equivalent join conditions and are grouped together at
// rewriter and evaluator nodes (Section 4.3.5).
func (q *Query) ConditionKey() string { return q.planned().cond }

// NeededAttrs returns the attributes of the named relation required to
// finish evaluating the query after the other relation's side is fixed:
// the attributes in the SELECT list, the join expression and the selection
// predicates. DAI-V ships exactly this projection of a tuple (Section 4.5).
func (q *Query) NeededAttrs(rel string) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a Attr) {
		if a.Rel == rel && !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a.Name)
		}
	}
	for _, a := range q.sel {
		add(a)
	}
	side, err := q.SideFor(rel)
	if err == nil {
		for _, a := range Attrs(q.Expr(side)) {
			add(a)
		}
	}
	for _, f := range q.filters {
		if f.Rel != rel {
			continue
		}
		for _, a := range Attrs(f.L) {
			add(a)
		}
		for _, a := range Attrs(f.R) {
			add(a)
		}
	}
	return out
}

// Project restricts tuple t to the attributes of its relation that the
// query needs (NeededAttrs), through the projection the query's plan
// prepared for that relation.
func (q *Query) Project(t *relation.Tuple) (*relation.Tuple, error) {
	s, err := q.SideFor(t.Relation())
	if err != nil {
		return nil, err
	}
	p := q.projections()
	if p.projErr[s] != nil {
		return nil, p.projErr[s]
	}
	return p.proj[s].Apply(t)
}

// plan holds what is fixed per parsed query but used on every tuple the
// query meets: its condition key, each side's join attributes and each
// relation's projection. Parse attaches an empty plan and each part is
// filled on first use — the condition key and join attributes when the
// query is indexed, the projections when a tuple first triggers it — so
// subscribing pays no more than before. The With* copies share the
// pointer, so a query and all its identified and decoded copies compute
// each part once.
type plan struct {
	once      sync.Once
	cond      string
	sideAttrs [2][]string // indexed by Side

	projOnce sync.Once
	proj     [2]*relation.Projection
	projErr  [2]error
}

func (q *Query) planned() *plan {
	p := q.plan
	p.once.Do(func() {
		p.cond = q.left.String() + " = " + q.right.String()
		for _, s := range []Side{SideLeft, SideRight} {
			seen := make(map[string]bool)
			for _, a := range Attrs(q.Expr(s)) {
				if !seen[a.Name] {
					seen[a.Name] = true
					p.sideAttrs[s] = append(p.sideAttrs[s], a.Name)
				}
			}
		}
	})
	return p
}

func (q *Query) projections() *plan {
	p := q.plan
	p.projOnce.Do(func() {
		for _, s := range []Side{SideLeft, SideRight} {
			rel := q.Rel(s)
			p.proj[s], p.projErr[s] = relation.NewProjection(rel, q.NeededAttrs(rel.Name()))
		}
	})
	return p
}

// SelectValuesFrom extracts the values of the SELECT attributes that belong
// to the tuple's relation — the v1, ..., vl that name a rewritten query's
// key in Section 4.3.3.
func (q *Query) SelectValuesFrom(t *relation.Tuple) ([]relation.Value, error) {
	var out []relation.Value
	for _, a := range q.sel {
		if a.Rel != t.Relation() {
			continue
		}
		v, err := t.Value(a.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// RewriteKey computes the key of the rewritten query created when tuple t
// of the index relation triggers q, per Section 4.3.3:
//
//	Key(q') = Key(q) + v1 + v2 + ... + vl + valDA(q, t)
//
// where vj are the values of the index relation's SELECT attributes in t.
// Two rewritten queries share a key exactly when they were created from the
// same query by tuples with the same value of the index attribute.
func (q *Query) RewriteKey(t *relation.Tuple, valDA relation.Value) (string, error) {
	vals, err := q.SelectValuesFrom(t)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(q.key)
	for _, v := range vals {
		b.WriteByte('+')
		b.WriteString(v.Canon())
	}
	b.WriteByte('+')
	b.WriteString(valDA.Canon())
	return b.String(), nil
}

// ProjectNotification computes the SELECT projection over a matched pair of
// tuples, one from each relation — the answer carried by a notification.
func (q *Query) ProjectNotification(left, right *relation.Tuple) ([]relation.Value, error) {
	if left.Relation() != q.leftRel.Name() || right.Relation() != q.rightRel.Name() {
		return nil, fmt.Errorf("query: ProjectNotification tuple relations %s, %s do not match %s ⋈ %s",
			left.Relation(), right.Relation(), q.leftRel.Name(), q.rightRel.Name())
	}
	out := make([]relation.Value, len(q.sel))
	for i, a := range q.sel {
		src := left
		if a.Rel == q.rightRel.Name() {
			src = right
		}
		v, err := src.Value(a.Name)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// String renders the query's SQL text, or the normalized condition when the
// text is unavailable.
func (q *Query) String() string {
	if q.text != "" {
		return q.text
	}
	return q.ConditionKey()
}
