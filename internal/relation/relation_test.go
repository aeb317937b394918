package relation

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	s := S("hello")
	if s.Kind() != String || s.Str() != "hello" {
		t.Fatal("string value wrong")
	}
	n := N(3.5)
	if n.Kind() != Number || n.Num() != 3.5 {
		t.Fatal("number value wrong")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic(t, func() { S("x").Num() })
	mustPanic(t, func() { N(1).Str() })
}

func TestValueCanonNumbersTreatedAsStrings(t *testing.T) {
	// Section 4.2: numeric values are treated as strings in identifiers;
	// the canonical form must be stable across equivalent literals.
	if N(7).Canon() != N(7.0).Canon() {
		t.Fatal("7 and 7.0 canon differ")
	}
	if N(7).Canon() != "7" {
		t.Fatalf("canon(7) = %q", N(7).Canon())
	}
	if N(0.5).Canon() != "0.5" {
		t.Fatalf("canon(0.5) = %q", N(0.5).Canon())
	}
	if S("abc").Canon() != "abc" {
		t.Fatalf("canon(abc) = %q", S("abc").Canon())
	}
}

func TestValueEquality(t *testing.T) {
	if !S("a").Equal(S("a")) || S("a").Equal(S("b")) {
		t.Fatal("string equality wrong")
	}
	if !N(2).Equal(N(2)) || N(2).Equal(N(3)) {
		t.Fatal("number equality wrong")
	}
	if S("2").Equal(N(2)) {
		t.Fatal("cross-kind equality must be false")
	}
}

func TestValueCanonRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		v := N(x)
		w := N(v.Num())
		return v.Equal(w) && v.Canon() == w.Canon()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueString(t *testing.T) {
	if S("x").String() != `"x"` {
		t.Fatalf("String = %s", S("x").String())
	}
	if N(4).String() != "4" {
		t.Fatalf("String = %s", N(4).String())
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", "A"); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewSchema("R"); err == nil {
		t.Fatal("no attributes accepted")
	}
	if _, err := NewSchema("R", "A", "A"); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := NewSchema("R", ""); err == nil {
		t.Fatal("empty attribute accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := MustSchema("Document", "Id", "Title", "Conference", "AuthorId")
	if s.Name() != "Document" || s.Arity() != 4 {
		t.Fatal("schema basics wrong")
	}
	if s.AttrIndex("Title") != 1 || s.AttrIndex("Nope") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	if !s.HasAttr("Id") || s.HasAttr("X") {
		t.Fatal("HasAttr wrong")
	}
	attrs := s.Attrs()
	attrs[0] = "mutated"
	if s.AttrIndex("mutated") != -1 {
		t.Fatal("Attrs aliases internal state")
	}
	if got := s.String(); !strings.Contains(got, "Document(Id") {
		t.Fatalf("String = %s", got)
	}
}

func TestCatalog(t *testing.T) {
	d := MustSchema("Document", "Id", "Title")
	a := MustSchema("Authors", "Id", "Name")
	c := MustCatalog(d, a)
	if c.Lookup("Document") != d || c.Lookup("Authors") != a {
		t.Fatal("Lookup wrong")
	}
	if c.Lookup("Missing") != nil {
		t.Fatal("Lookup invented a schema")
	}
	if err := c.Add(MustSchema("Document", "X")); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	var zero Catalog
	if zero.Lookup("x") != nil {
		t.Fatal("zero catalog lookup wrong")
	}
	if err := zero.Add(d); err != nil {
		t.Fatalf("zero catalog Add: %v", err)
	}
}

func TestNewTupleValidation(t *testing.T) {
	s := MustSchema("R", "A", "B")
	if _, err := NewTuple(s, S("x")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := NewTuple(nil, S("x")); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestTupleAccessors(t *testing.T) {
	s := MustSchema("R", "A", "B")
	tp := MustTuple(s, S("x"), N(9))
	if tp.Relation() != "R" || tp.Schema() != s {
		t.Fatal("tuple schema wrong")
	}
	if v := tp.MustValue("B"); !v.Equal(N(9)) {
		t.Fatal("MustValue wrong")
	}
	if _, err := tp.Value("C"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	vals := tp.Values()
	vals[0] = N(0)
	if !tp.MustValue("A").Equal(S("x")) {
		t.Fatal("Values aliases internal state")
	}
	mustPanic(t, func() { tp.MustValue("Z") })
}

func TestTupleWithPubT(t *testing.T) {
	s := MustSchema("R", "A")
	tp := MustTuple(s, S("x"))
	if tp.PubT() != 0 {
		t.Fatal("fresh tuple has nonzero pubT")
	}
	stamped := tp.WithPubT(42)
	if stamped.PubT() != 42 || tp.PubT() != 0 {
		t.Fatal("WithPubT mutated original or failed to stamp")
	}
	if !stamped.MustValue("A").Equal(S("x")) {
		t.Fatal("WithPubT lost values")
	}
}

func TestTupleProject(t *testing.T) {
	s := MustSchema("R", "A", "B", "C")
	p, err := NewProjection(s, []string{"C", "A"})
	if err != nil {
		t.Fatalf("NewProjection: %v", err)
	}
	a, _ := p.Apply(MustTuple(s, N(1), N(2), N(3)).WithPubT(7))
	if a.Schema() != p.Schema() || a.Schema().Arity() != 2 {
		t.Fatal("projected tuple does not carry the projection's schema")
	}
	if !a.MustValue("C").Equal(N(3)) || !a.MustValue("A").Equal(N(1)) {
		t.Fatalf("projection wrong: %v", a)
	}
	if a.PubT() != 7 {
		t.Fatal("projection lost pubT")
	}
	// A tuple of the same relation under another layout (as decoded off
	// the wire) projects by name, not by the precomputed positions.
	b, _ := p.Apply(MustTuple(MustSchema("R", "C", "B", "A"), N(30), N(20), N(10)))
	if b.Schema() != p.Schema() || !b.MustValue("C").Equal(N(30)) || !b.MustValue("A").Equal(N(10)) {
		t.Fatalf("projection of a relaid tuple wrong: %v", b)
	}
	if _, err := p.Apply(MustTuple(MustSchema("S", "A", "C"), N(1), N(2))); err == nil {
		t.Fatal("projection applied to another relation's tuple")
	}
	if _, err := p.Apply(MustTuple(MustSchema("R", "A", "B"), N(1), N(2))); err == nil {
		t.Fatal("projection applied to a tuple missing an attribute")
	}
	if _, err := NewProjection(s, []string{"Z"}); err == nil {
		t.Fatal("projection onto unknown attribute accepted")
	}
}

func TestNegativeZeroCanonIsZero(t *testing.T) {
	negZero := N(math.Copysign(0, -1))
	if !negZero.Equal(N(0)) {
		t.Fatal("-0 and 0 should be Equal")
	}
	if negZero.Canon() != N(0).Canon() || negZero.Canon() != "0" {
		t.Fatalf("Canon(-0) = %q, want %q", negZero.Canon(), "0")
	}
}

func TestTupleString(t *testing.T) {
	s := MustSchema("R", "A", "B")
	got := MustTuple(s, S("x"), N(1)).String()
	if got != `R("x", 1)` {
		t.Fatalf("String = %s", got)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
