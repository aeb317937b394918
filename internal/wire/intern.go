package wire

import (
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
// Both tables are process-wide, since every engine in a process decodes
// through this package's free functions. Each is a map behind a mutex,
// bounded like the engine's identifier cache (engine/idcache.go): when
// full, a table is dropped and restarted rather than evicted. A query text
// keeps at most internVariants parses, newest first, so parses tied to a
// dead catalog are pushed out and never outgrow the bound.

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

type queryTable struct {
	mu sync.Mutex
	m  map[string][]*query.Query // newest parse first
}

type schemaTable struct {
	mu sync.Mutex
	m  map[string]*relation.Schema
}

var (
	queries queryTable
	schemas schemaTable
)

// parse returns the parsed, identity-free query for sql under catalog,
// parsing it only when the text has no parse against the schemas catalog
// resolves. The result is shared: callers copy it.
func (c *queryTable) parse(catalog *relation.Catalog, sql []byte) (*query.Query, error) {
	c.mu.Lock()
	for _, q := range c.m[string(sql)] {
		if resolvesTo(catalog, q) {
			c.mu.Unlock()
			return q, nil
		}
	}
	c.mu.Unlock()
	text := string(sql)
	q, err := query.Parse(catalog, text)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= internMax {
		c.m = make(map[string][]*query.Query)
	}
	older := c.m[text]
	if len(older) >= internVariants {
		older = older[:internVariants-1]
	}
	c.m[text] = append([]*query.Query{q}, older...)
	c.mu.Unlock()
	return q, nil
}

// resolvesTo reports whether catalog maps both of q's relations to the
// schemas q was parsed against.
func resolvesTo(catalog *relation.Catalog, q *query.Query) bool {
	l, r := q.Rel(query.SideLeft), q.Rel(query.SideRight)
	return catalog.Lookup(l.Name()) == l && catalog.Lookup(r.Name()) == r
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
