package durable

import (
	"fmt"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// Snapshot file codec. The whole file is one CRC frame (written to a temp
// path, fsynced, renamed into place — so it is either the complete old
// snapshot or the complete new one). Its payload:
//
//	coveredLSN uvarint      WAL records with lsn <= coveredLSN are stale
//	meta       bytes        engine snapMeta message (engine codec)
//	hasView    uvarint      0/1
//	[view      MemberView]  latest adopted membership view, if any
//	down       []string     crashed-pending node keys (count + strings)
//	nodes      count        per-node handoff sections:
//	  key      string
//	  msg      bytes        engine handoff message (engine codec)

// snapImage is a decoded snapshot file.
type snapImage struct {
	covered uint64
	meta    chord.Message // engine snapMeta message
	view    *wire.MemberView
	down    []string
	nodes   []engine.NodeSnapshot
}

// encodeSnapshot renders a snapshot image to its framed file bytes.
func encodeSnapshot(img snapImage) ([]byte, error) {
	var w wire.Buffer
	w.PutUvarint(img.covered)
	var mb wire.Buffer
	if err := engine.EncodeMessage(&mb, img.meta); err != nil {
		return nil, fmt.Errorf("durable: encode snapshot meta: %w", err)
	}
	w.PutBytes(mb.Bytes())
	if img.view != nil {
		w.PutUvarint(1)
		wire.EncodeMemberView(&w, img.view)
	} else {
		w.PutUvarint(0)
	}
	w.PutUvarint(uint64(len(img.down)))
	for _, k := range img.down {
		w.PutString(k)
	}
	w.PutUvarint(uint64(len(img.nodes)))
	for _, ns := range img.nodes {
		w.PutString(ns.Key)
		var nb wire.Buffer
		if err := engine.EncodeMessage(&nb, ns.Msg); err != nil {
			return nil, fmt.Errorf("durable: encode snapshot node %s: %w", ns.Key, err)
		}
		w.PutBytes(nb.Bytes())
	}
	return appendFramedPayload(nil, w.Bytes()), nil
}

// decodeSnapshot parses a snapshot file image.
func decodeSnapshot(data []byte, catalog *relation.Catalog) (snapImage, error) {
	var img snapImage
	payload, err := parseOneFrame(data)
	if err != nil {
		return img, fmt.Errorf("durable: snapshot: %w", err)
	}
	var r wire.Reader
	r.Reset(payload)
	if img.covered, err = r.Uvarint(); err != nil {
		return img, err
	}
	metaBytes, err := r.Bytes()
	if err != nil {
		return img, err
	}
	var mr wire.Reader
	mr.Reset(metaBytes)
	if img.meta, err = engine.DecodeMessage(&mr, catalog); err != nil {
		return img, fmt.Errorf("durable: decode snapshot meta: %w", err)
	}
	hasView, err := r.Uvarint()
	if err != nil {
		return img, err
	}
	if hasView != 0 {
		if img.view, err = wire.DecodeMemberView(&r); err != nil {
			return img, err
		}
	}
	nDown, err := recCount(&r)
	if err != nil {
		return img, err
	}
	img.down = make([]string, nDown)
	for i := range img.down {
		if img.down[i], err = r.String(); err != nil {
			return img, err
		}
	}
	nNodes, err := recCount(&r)
	if err != nil {
		return img, err
	}
	img.nodes = make([]engine.NodeSnapshot, nNodes)
	for i := range img.nodes {
		if img.nodes[i].Key, err = r.String(); err != nil {
			return img, err
		}
		nb, err := r.Bytes()
		if err != nil {
			return img, err
		}
		var nr wire.Reader
		nr.Reset(nb)
		if img.nodes[i].Msg, err = engine.DecodeMessage(&nr, catalog); err != nil {
			return img, fmt.Errorf("durable: decode snapshot node %s: %w", img.nodes[i].Key, err)
		}
	}
	return img, nil
}

// recCount validates an element count against the bytes remaining, like
// wire.Count: every element takes at least one byte.
func recCount(r *wire.Reader) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()) {
		return 0, fmt.Errorf("durable: element count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	return int(n), nil
}
