package wire

import (
	"fmt"
	"sync"
	"testing"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

func internCatalog() *relation.Catalog {
	return relation.MustCatalog(
		relation.MustSchema("R", "A", "B", "C"),
		relation.MustSchema("S", "D", "E"),
	)
}

const internSQL = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND R.C >= 1`

func encodedQuery(q *query.Query) []byte {
	var w Buffer
	EncodeQuery(&w, q)
	return w.Bytes()
}

func decodeQuery(t testing.TB, b []byte, catalog *relation.Catalog) *query.Query {
	t.Helper()
	q, err := DecodeQuery(NewReader(b), catalog)
	if err != nil {
		t.Fatalf("DecodeQuery: %v", err)
	}
	return q
}

// samePlan reports whether two queries share one per-query plan: the plan
// owns SideAttrs' backing array and the projection schemas.
func samePlan(t testing.TB, a, b *query.Query) bool {
	t.Helper()
	tu := relation.MustTuple(a.Rel(query.SideLeft), relation.N(1), relation.N(2), relation.N(3))
	pa, errA := a.Project(tu)
	pb, errB := b.Project(tu)
	if errA != nil || errB != nil {
		t.Fatalf("Project: %v, %v", errA, errB)
	}
	return &a.SideAttrs(query.SideLeft)[0] == &b.SideAttrs(query.SideLeft)[0] && pa.Schema() == pb.Schema()
}

func TestDecodedQueriesKeepIdentityAndSharePlan(t *testing.T) {
	catalog := internCatalog()
	parsed := query.MustParse(catalog, internSQL)
	a := decodeQuery(t, encodedQuery(parsed.WithIdentity("n1", "ip1", 1).WithInsT(5)), catalog)
	b := decodeQuery(t, encodedQuery(parsed.WithIdentity("n2", "ip2", 7).WithInsT(9)), catalog)
	if a == b {
		t.Fatal("two decodes returned the same query value")
	}
	if a.Key() != "n1#1" || a.Subscriber() != "n1" || a.SubscriberIP() != "ip1" || a.InsT() != 5 {
		t.Fatalf("first decode identity: %q %q %q %d", a.Key(), a.Subscriber(), a.SubscriberIP(), a.InsT())
	}
	if b.Key() != "n2#7" || b.Subscriber() != "n2" || b.SubscriberIP() != "ip2" || b.InsT() != 9 {
		t.Fatalf("second decode identity: %q %q %q %d", b.Key(), b.Subscriber(), b.SubscriberIP(), b.InsT())
	}
	if !samePlan(t, a, b) {
		t.Fatal("decodes of one query text do not share a plan")
	}
	// Re-encoding a decoded query is byte-identical.
	if got, want := string(encodedQuery(b)), string(encodedQuery(parsed.WithIdentity("n2", "ip2", 7).WithInsT(9))); got != want {
		t.Fatal("re-encoded query differs")
	}
}

func TestQueryTableNeverSharesAParseAcrossCatalogs(t *testing.T) {
	c1, c2 := internCatalog(), internCatalog()
	enc := encodedQuery(query.MustParse(c1, internSQL).WithIdentity("n", "ip", 1))
	for _, c := range []*relation.Catalog{c1, c2, c1} {
		q := decodeQuery(t, enc, c)
		if q.Rel(query.SideLeft) != c.Lookup("R") || q.Rel(query.SideRight) != c.Lookup("S") {
			t.Fatal("decoded query resolved against another catalog's schemas")
		}
	}
	q1, q2 := decodeQuery(t, enc, c1), decodeQuery(t, enc, c2)
	if samePlan(t, q1, q2) {
		t.Fatal("queries decoded under different catalogs share a plan")
	}
}

// Engines with distinct catalogs in one process (the daemons of an
// in-process overlay) decode the same texts alternately; each keeps its
// own parse instead of evicting the other's, and the oldest of more than
// internVariants catalogs is pushed out.
func TestQueryTableKeepsOneParsePerCatalog(t *testing.T) {
	cats := make([]*relation.Catalog, internVariants+1)
	for i := range cats {
		cats[i] = internCatalog()
	}
	enc := encodedQuery(query.MustParse(cats[0], internSQL).WithIdentity("n", "ip", 1))
	first := []*query.Query{decodeQuery(t, enc, cats[0]), decodeQuery(t, enc, cats[1])}
	for round := 0; round < 3; round++ {
		for i, want := range first {
			if !samePlan(t, decodeQuery(t, enc, cats[i]), want) {
				t.Fatalf("round %d: catalog %d re-parsed a text it decoded before", round, i)
			}
		}
	}
	for _, c := range cats[2:] {
		decodeQuery(t, enc, c)
	}
	queries.mu.Lock()
	n := len(queries.m[internSQL])
	queries.mu.Unlock()
	if n != internVariants {
		t.Fatalf("text keeps %d parses, want %d", n, internVariants)
	}
	if samePlan(t, decodeQuery(t, enc, cats[0]), first[0]) {
		t.Fatal("the oldest catalog's parse survived past the variant bound")
	}
}

func TestQueryTableDoesNotCacheParseErrors(t *testing.T) {
	catalog := relation.MustCatalog(relation.MustSchema("R", "A", "B", "C"))
	sql := `SELECT R.A, T.X FROM R, T WHERE R.B = T.X`
	var w Buffer
	w.PutString("k#1")
	w.PutString("k")
	w.PutString("ip")
	w.PutVarint(3)
	w.PutString(sql)
	if _, err := DecodeQuery(NewReader(w.Bytes()), catalog); err == nil {
		t.Fatal("query over an unknown relation decoded")
	}
	queries.mu.Lock()
	for _, q := range queries.m[sql] {
		if resolvesTo(catalog, q) {
			t.Error("a failed parse was cached")
		}
	}
	queries.mu.Unlock()
	if err := catalog.Add(relation.MustSchema("T", "X")); err != nil {
		t.Fatal(err)
	}
	q := decodeQuery(t, w.Bytes(), catalog)
	if q.Key() != "k#1" || q.Rel(query.SideRight) != catalog.Lookup("T") {
		t.Fatalf("decode after Catalog.Add: %q %v", q.Key(), q.Rel(query.SideRight))
	}
}

func TestInternTablesResetAtBound(t *testing.T) {
	catalog := internCatalog()
	parsed := query.MustParse(catalog, internSQL)
	tu := relation.MustTuple(catalog.Lookup("R"), relation.N(1), relation.S("x"), relation.N(3)).WithPubT(4)
	var tw Buffer
	EncodeTuple(&tw, tu)

	queries.mu.Lock()
	queries.m = make(map[string][]*query.Query)
	for i := 0; i < internMax; i++ {
		queries.m[fmt.Sprint("filler", i)] = []*query.Query{parsed}
	}
	queries.mu.Unlock()
	schemas.mu.Lock()
	schemas.m = make(map[string]*relation.Schema)
	for i := 0; i < internMax; i++ {
		schemas.m[fmt.Sprint("filler", i)] = tu.Schema()
	}
	schemas.mu.Unlock()

	q := decodeQuery(t, encodedQuery(parsed.WithIdentity("n", "ip", 3).WithInsT(8)), catalog)
	if q.Key() != "n#3" || q.InsT() != 8 || q.ConditionKey() != parsed.ConditionKey() {
		t.Fatalf("decode across a reset: %q %d %q", q.Key(), q.InsT(), q.ConditionKey())
	}
	got, err := DecodeTuple(NewReader(tw.Bytes()))
	if err != nil || got.String() != tu.String() || got.PubT() != 4 {
		t.Fatalf("DecodeTuple across a reset = %v, %v", got, err)
	}
	queries.mu.Lock()
	nq := len(queries.m)
	queries.mu.Unlock()
	schemas.mu.Lock()
	ns := len(schemas.m)
	schemas.mu.Unlock()
	if nq != 1 || ns != 1 {
		t.Fatalf("tables hold %d queries, %d schemas after the reset, want 1 each", nq, ns)
	}
}

func TestDecodedTuplesShareInternedSchema(t *testing.T) {
	catalog := internCatalog()
	r := catalog.Lookup("R")
	decode := func(tu *relation.Tuple) *relation.Tuple {
		var w Buffer
		EncodeTuple(&w, tu)
		got, err := DecodeTuple(NewReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := decode(relation.MustTuple(r, relation.N(1), relation.N(2), relation.N(3)).WithPubT(1))
	b := decode(relation.MustTuple(r, relation.S("x"), relation.N(5), relation.N(6)).WithPubT(2))
	p, err := relation.NewProjection(r, []string{"B", "A"})
	if err != nil {
		t.Fatal(err)
	}
	proj, _ := p.Apply(b)
	c := decode(proj)
	if a.Schema() != b.Schema() {
		t.Fatal("tuples with one header decoded to distinct schemas")
	}
	if c.Schema() == a.Schema() || c.Schema().Arity() != 2 || c.Schema().Name() != "R" {
		t.Fatalf("projected tuple decoded to schema %v", c.Schema())
	}
	if b.String() != `R("x", 5, 6)` || b.PubT() != 2 || c.String() != `R(5, "x")` || c.PubT() != 2 {
		t.Fatalf("decoded tuples wrong: %v %v", b, c)
	}
}

// Concurrent decoders under two catalogs exercise the tables' locking,
// replacement and resets; run with -race.
func TestInternTablesConcurrentDecode(t *testing.T) {
	cats := []*relation.Catalog{internCatalog(), internCatalog()}
	sqls := []string{internSQL, `SELECT R.B FROM R, S WHERE R.A = S.D`, `SELECT S.E FROM R, S WHERE R.C = S.E`}
	var encs [][]byte
	for i, sql := range sqls {
		encs = append(encs, encodedQuery(query.MustParse(cats[0], sql).WithIdentity("n", "ip", i).WithInsT(int64(i))))
	}
	var tw Buffer
	EncodeTuple(&tw, relation.MustTuple(cats[0].Lookup("S"), relation.N(1), relation.S("e")).WithPubT(6))

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				cat := cats[(g+i)%2]
				k := i % len(sqls)
				q, err := DecodeQuery(NewReader(encs[k]), cat)
				if err != nil {
					errs <- err
					return
				}
				if q.Text() != sqls[k] || q.InsT() != int64(k) || q.Rel(query.SideLeft) != cat.Lookup("R") {
					errs <- fmt.Errorf("goroutine %d: decoded %q insT %d under the wrong catalog", g, q.Text(), q.InsT())
					return
				}
				tu, err := DecodeTuple(NewReader(tw.Bytes()))
				if err != nil || tu.String() != `S(1, "e")` {
					errs <- fmt.Errorf("goroutine %d: DecodeTuple = %v, %v", g, tu, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Multi-way queries are interned per text, catalog and orientation: a
// repeat lookup returns the same parse, each orientation and each catalog
// gets its own, and an orientation marker naming no chain endpoint is an
// error that leaves nothing cached.
func TestParseMultiInternsPerCatalogAndOrientation(t *testing.T) {
	mcat := func() *relation.Catalog {
		return relation.MustCatalog(
			relation.MustSchema("A", "x", "y"),
			relation.MustSchema("B", "x", "y"),
			relation.MustSchema("C", "x", "y"),
		)
	}
	const sql = `SELECT A.y, C.y FROM A, B, C WHERE A.x = B.y AND B.x = C.y`
	multiQueries.mu.Lock()
	delete(multiQueries.m, sql) // parses from an earlier run (-count) would count as variants
	multiQueries.mu.Unlock()
	c1, c2 := mcat(), mcat()
	parse := func(c *relation.Catalog, first string) *query.MultiQuery {
		t.Helper()
		mq, err := ParseMulti(c, []byte(sql), []byte(first))
		if err != nil {
			t.Fatalf("ParseMulti(%s): %v", first, err)
		}
		if mq.RelAt(0).Name() != first {
			t.Fatalf("pipeline starts at %s, want %s", mq.RelAt(0).Name(), first)
		}
		for i := 0; i < mq.Arity(); i++ {
			if r := mq.RelAt(i); c.Lookup(r.Name()) != r {
				t.Fatalf("relation %s resolved against another catalog", r.Name())
			}
		}
		return mq
	}
	fwd, rev := parse(c1, "A"), parse(c1, "C")
	if fwd == rev {
		t.Fatal("both orientations share one parse")
	}
	if parse(c1, "A") != fwd || parse(c1, "C") != rev {
		t.Fatal("a repeat lookup parsed again")
	}
	if parse(c2, "A") == fwd {
		t.Fatal("catalogs share a parse")
	}
	if _, err := ParseMulti(c1, []byte(sql), []byte("B")); err == nil {
		t.Fatal("a middle relation was accepted as the orientation marker")
	}
	multiQueries.mu.Lock()
	n := len(multiQueries.m[sql])
	multiQueries.mu.Unlock()
	if n != 3 {
		t.Fatalf("text keeps %d parses, want 3 (two orientations, two catalogs)", n)
	}
}
