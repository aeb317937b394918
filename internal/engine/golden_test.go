package engine

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"cqjoin/internal/wire"
)

// wireGoldenPath pins the byte layout of every engine message, every WAL
// record and the membership view. The fuzz corpora and the size tests only
// check that encode, size and decode agree with each other, so a layout
// change made on all three sides at once would pass them; it fails here.
// The WAL records' entries are checked by internal/durable.
const wireGoldenPath = "testdata/wire-golden.txt"

// readWireGolden returns the pinned encodings of the entries whose names
// start with prefix, hex-encoded and keyed by name.
func readWireGolden(t *testing.T, prefix string) map[string]string {
	t.Helper()
	f, err := os.Open(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, enc, ok := strings.Cut(sc.Text(), " ")
		if ok && strings.HasPrefix(name, prefix) {
			golden[name] = enc
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// checkWireGolden asserts one pinned entry: the encoding is the golden
// bytes, the computed size is their length, and decoding the golden bytes
// then encoding the result gives them back.
func checkWireGolden(t *testing.T, golden map[string]string, name string, enc []byte, size int, reencode func([]byte) ([]byte, error)) {
	t.Helper()
	got := hex.EncodeToString(enc)
	want, ok := golden[name]
	if !ok {
		t.Errorf("%s: no golden entry; the current encoding is the line\n%s %s", name, name, got)
		return
	}
	delete(golden, name)
	if got != want {
		t.Errorf("%s: encoding changed\n got %s\nwant %s", name, got, want)
	}
	raw, err := hex.DecodeString(want)
	if err != nil {
		t.Fatalf("%s: malformed golden entry: %v", name, err)
	}
	if size != len(raw) {
		t.Errorf("%s: size %d, golden encoding has %d bytes", name, size, len(raw))
	}
	re, err := reencode(raw)
	if err != nil {
		t.Errorf("%s: golden bytes do not decode: %v", name, err)
	} else if hex.EncodeToString(re) != want {
		t.Errorf("%s: decode then encode\n got %x\nwant %s", name, re, want)
	}
}

func TestWireGolden(t *testing.T) {
	engineGolden := readWireGolden(t, "engine/")
	catalog, msgs := codecFixtures(t)
	for i, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		checkWireGolden(t, engineGolden, fmt.Sprintf("engine/%02d-%T", i, msg), w.Bytes(), MessageSize(msg),
			func(b []byte) ([]byte, error) {
				got, err := DecodeMessage(wire.NewReader(b), catalog)
				if err != nil {
					return nil, err
				}
				var re wire.Buffer
				err = EncodeMessage(&re, got)
				return re.Bytes(), err
			})
	}
	for name := range engineGolden {
		t.Errorf("golden entry %s has no fixture", name)
	}

	viewGolden := readWireGolden(t, "wire/")
	view := &wire.MemberView{Version: 300, Origin: "127.0.0.1:7002", Procs: []string{"127.0.0.1:7001", "127.0.0.1:7002", "host-b:9100"}}
	var w wire.Buffer
	wire.EncodeMemberView(&w, view)
	checkWireGolden(t, viewGolden, "wire/MemberView", w.Bytes(), wire.SizeMemberView(view),
		func(b []byte) ([]byte, error) {
			got, err := wire.DecodeMemberView(wire.NewReader(b))
			if err != nil {
				return nil, err
			}
			var re wire.Buffer
			wire.EncodeMemberView(&re, got)
			return re.Bytes(), nil
		})
}
