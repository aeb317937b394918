package wire

import (
	"fmt"
	"sync"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Decoding interns what repeats across messages. A continuous query
// crosses the wire once per rewrite and every rewrite carries the same SQL
// text, and every tuple of a relation (or of one query's projection of
// it) carries the same attribute list. Parsing that text and building that
// schema once per process, instead of once per message, is semantically
// transparent:
//
//   - a parsed query depends only on its text and on the schemas the
//     catalog resolves its two FROM relations to, and a parse is reused
//     only when the caller's catalog resolves both to the very schemas it
//     was parsed against — otherwise the text is parsed again, so a
//     process holding several catalogs never shares a parse between them;
//   - parse errors are never cached, since Catalog.Add can make the same
//     text valid later;
//   - the cached query carries no identity, and every decode returns a
//     fresh copy stamped with the message's key, subscriber, IP and
//     insertion time;
//   - schemas are immutable, so every tuple decoded with one header can
//     share one.
//
// Multi-way queries (ParseMulti) are interned the same way, their
// pipeline orientation included. All tables are process-wide, since every
// engine in a process decodes through this package's free functions. Each
// is a map behind a mutex, bounded like the engine's identifier cache
// (engine/idcache.go): when full, a table is dropped and restarted rather
// than evicted. A query text keeps at most internVariants parses, newest
// first, so parses tied to a dead catalog are pushed out and never
// outgrow the bound.

// internMax bounds the keys of each table: far above the distinct query
// texts and attribute lists any workload decodes, and reached only by a
// stream of ever-new texts, which then pays one parse each, as without the
// table. A schema takes a few hundred bytes and a parsed query about a
// kilobyte, so a full query table holds at most internVariants × 4 MB.
const internMax = 1 << 12

// internVariants bounds the parses one query text keeps, one per distinct
// pair of schemas it resolved to. A process hosting several engines (each
// daemon of an in-process overlay has its own catalog) decodes the same
// text under each catalog; with a single parse per text they would evict
// each other on nearly every message.
const internVariants = 4

// parseTable interns parses by text, keeping up to internVariants per
// text, newest first.
type parseTable[Q any] struct {
	mu sync.Mutex
	m  map[string][]Q
}

type schemaTable struct {
	mu sync.Mutex
	m  map[string]*relation.Schema
}

var (
	queries      parseTable[*query.Query]
	multiQueries parseTable[*query.MultiQuery]
	schemas      schemaTable
)

// lookup returns a parse of text that usable accepts, calling parse only
// when the text has none. A parse error is returned uncached.
func (c *parseTable[Q]) lookup(text []byte, usable func(Q) bool, parse func(string) (Q, error)) (Q, error) {
	c.mu.Lock()
	for _, q := range c.m[string(text)] {
		if usable(q) {
			c.mu.Unlock()
			return q, nil
		}
	}
	c.mu.Unlock()
	key := string(text)
	q, err := parse(key)
	if err != nil {
		return q, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= internMax {
		c.m = make(map[string][]Q)
	}
	older := c.m[key]
	if len(older) >= internVariants {
		older = older[:internVariants-1]
	}
	c.m[key] = append([]Q{q}, older...)
	c.mu.Unlock()
	return q, nil
}

// parseQuery returns the parsed, identity-free query for sql under
// catalog, parsing it only when the text has no parse against the schemas
// catalog resolves. The result is shared: callers copy it.
func parseQuery(catalog *relation.Catalog, sql []byte) (*query.Query, error) {
	return queries.lookup(sql,
		func(q *query.Query) bool { return resolvesTo(catalog, q) },
		func(text string) (*query.Query, error) { return query.Parse(catalog, text) })
}

// resolvesTo reports whether catalog maps both of q's relations to the
// schemas q was parsed against.
func resolvesTo(catalog *relation.Catalog, q *query.Query) bool {
	l, r := q.Rel(query.SideLeft), q.Rel(query.SideRight)
	return catalog.Lookup(l.Name()) == l && catalog.Lookup(r.Name()) == r
}

// ParseMulti returns the parsed, identity-free multi-way query for sql
// under catalog, oriented so that its pipeline starts at relation first
// (see MultiQuery.Reverse). Like DecodeQuery's table it parses a text once
// per catalog, and once per orientation, which counts as a variant of its
// own. The result is shared: callers copy it (WithRestoredIdentity).
func ParseMulti(catalog *relation.Catalog, sql, first []byte) (*query.MultiQuery, error) {
	return multiQueries.lookup(sql,
		func(mq *query.MultiQuery) bool {
			if mq.RelAt(0).Name() != string(first) {
				return false
			}
			for i := 0; i < mq.Arity(); i++ {
				if r := mq.RelAt(i); catalog.Lookup(r.Name()) != r {
					return false
				}
			}
			return true
		},
		func(text string) (*query.MultiQuery, error) {
			mq, err := query.ParseMulti(catalog, text)
			if err != nil {
				return nil, err
			}
			if mq.RelAt(0).Name() != string(first) {
				mq = mq.Reverse()
				if mq.RelAt(0).Name() != string(first) {
					return nil, fmt.Errorf("orientation marker %q matches neither chain endpoint", first)
				}
			}
			return mq, nil
		})
}

// lookup returns the schema for an encoded tuple header (relation name,
// arity and attribute names, as EncodeTuple writes them), building it from
// the header on first sight.
func (c *schemaTable) lookup(header []byte) (*relation.Schema, error) {
	c.mu.Lock()
	s := c.m[string(header)]
	c.mu.Unlock()
	if s != nil {
		return s, nil
	}
	r := NewReader(header)
	rel, err := r.String()
	if err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	attrs := make([]string, n)
	for i := range attrs {
		if attrs[i], err = r.String(); err != nil {
			return nil, err
		}
	}
	if s, err = relation.NewSchema(rel, attrs...); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= internMax {
		c.m = make(map[string]*relation.Schema)
	}
	c.m[string(header)] = s
	c.mu.Unlock()
	return s, nil
}
