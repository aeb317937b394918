package durable

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"cqjoin/internal/wire"
)

// TestRecordGolden pins the byte layout of every WAL record kind against
// the wal/ entries of the engine's wire golden file (see
// internal/engine/golden_test.go): the encoding is the golden bytes,
// recordSize is their length, and decoding them then encoding the result
// gives them back.
func TestRecordGolden(t *testing.T) {
	f, err := os.Open("../engine/testdata/wire-golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, enc, ok := strings.Cut(sc.Text(), " "); ok && strings.HasPrefix(name, "wal/") {
			golden[name] = enc
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range seedRecords() {
		name := fmt.Sprintf("wal/%d-%T", i, rec)
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got := hex.EncodeToString(w.Bytes())
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden entry; the current encoding is the line\n%s %s", name, name, got)
			continue
		}
		delete(golden, name)
		if got != want {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", name, got, want)
		}
		raw, err := hex.DecodeString(want)
		if err != nil {
			t.Fatalf("%s: malformed golden entry: %v", name, err)
		}
		if n := recordSize(rec); n != len(raw) {
			t.Errorf("%s: recordSize %d, golden encoding has %d bytes", name, n, len(raw))
		}
		var r wire.Reader
		r.Reset(raw)
		dec, err := decodeRecord(&r)
		if err != nil {
			t.Errorf("%s: golden bytes do not decode: %v", name, err)
			continue
		}
		var re wire.Buffer
		if err := encodeRecord(&re, dec); err != nil || hex.EncodeToString(re.Bytes()) != want {
			t.Errorf("%s: decode then encode\n got %x (%v)\nwant %s", name, re.Bytes(), err, want)
		}
	}
	for name := range golden {
		t.Errorf("golden entry %s has no seed record", name)
	}
}

// TestRecordTags checks the WAL tag table: the tags are dense 1..N, each
// is the first byte of exactly one record type's encodings, a record
// decodes to the type that encodes its tag, and a tag outside 1..N is
// rejected.
func TestRecordTags(t *testing.T) {
	types := make(map[byte]reflect.Type)
	for _, rec := range seedRecords() {
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			t.Fatalf("%T: encode: %v", rec, err)
		}
		tag := w.Bytes()[0]
		if prev, ok := types[tag]; ok && prev != reflect.TypeOf(rec) {
			t.Errorf("tag %d encodes both %v and %T", tag, prev, rec)
		}
		types[tag] = reflect.TypeOf(rec)
		got, err := decodeRecord(wire.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("%T: decode: %v", rec, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(rec) {
			t.Errorf("tag %d decodes to %T, but %T encodes it", tag, got, rec)
		}
	}
	for tag := 1; tag <= tagView; tag++ {
		if types[byte(tag)] == nil {
			t.Errorf("tag %d: no record type encodes it", tag)
		}
	}
	if len(types) != tagView {
		t.Errorf("%d tags in use, want the dense range 1..%d", len(types), tagView)
	}
	for _, tag := range []uint64{0, tagView + 1, 257} {
		var w wire.Buffer
		w.PutUvarint(tag)
		w.PutUvarint(0)
		_, err := decodeRecord(wire.NewReader(w.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "unknown record tag") {
			t.Errorf("tag %d: decode error %v, want an unknown-tag error", tag, err)
		}
	}
}
