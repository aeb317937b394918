package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cqjoin"
	"cqjoin/internal/chord"
	"cqjoin/internal/daemon"
	"cqjoin/internal/durable"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	wlgen "cqjoin/internal/workload"
)

// libSAI is the in-process library workload: a cqjoin.Cluster running
// SAI without a window, fed T1 queries and Zipf-skewed tuples from the
// internal/workload generator.
type libSAI struct {
	nodes   int
	offered float64
	workdir string
	catalog *relation.Catalog
	dsl     string // the catalog in cqjoind's schema syntax
	sqls    []string
	subNode []int
	pubs    []libPub

	// wantContents and wantDeliveries cache the oracle's answer for the
	// subscriptions it was computed from (see libInst.check).
	wantContents, wantDeliveries map[string]bool
	wantQueries                  string
}

type libPub struct {
	node int
	rel  string
	vals []interface{}
}

func newLibSAI(nodes, queries, stream int, rate float64, seed int64, workdir string) *libSAI {
	gen := wlgen.New(wlgen.Params{Seed: seed})
	rng := rand.New(rand.NewSource(seed + 7))
	w := &libSAI{nodes: nodes, offered: rate, workdir: workdir, catalog: gen.Catalog()}
	var dsl []string
	for _, s := range w.catalog.Schemas() {
		dsl = append(dsl, fmt.Sprintf("%s(%s)", s.Name(), strings.Join(s.Attrs(), ",")))
	}
	w.dsl = strings.Join(dsl, ";")
	for q := 0; q < queries; q++ {
		w.sqls = append(w.sqls, gen.Query().Text())
		w.subNode = append(w.subNode, rng.Intn(nodes))
	}
	for i := 0; i < stream; i++ {
		t := gen.Tuple()
		vals := make([]interface{}, 0, t.Schema().Arity())
		for _, v := range t.Values() {
			vals = append(vals, v.Num())
		}
		w.pubs = append(w.pubs, libPub{node: rng.Intn(nodes), rel: t.Relation(), vals: vals})
	}
	return w
}

func (w *libSAI) rate() float64 { return w.offered }

func (w *libSAI) describe() string {
	return fmt.Sprintf("nodes=%d queries=%d publications=%d rate=%.0f/s algorithm=SAI window=none zipf=0.9 pairs=4",
		w.nodes, len(w.sqls), len(w.pubs), w.offered)
}

func (w *libSAI) config() cqjoin.Config {
	return cqjoin.Config{Nodes: w.nodes, Catalog: w.catalog, Algorithm: cqjoin.SAI, Seed: programSeed}
}

// libInst is one cluster under test.
type libInst struct {
	w       *libSAI
	cluster *cqjoin.Cluster
	queries []*cqjoin.Query
	tr      *tracer

	// mu serializes publications the way internal/load.SimTarget does:
	// the engine's Publish is synchronous, and waiting for mu is queueing
	// delay the latency samples must include.
	mu      sync.Mutex
	ph      *phase
	cur     int // op being published; guarded by mu
	tuples  []*relation.Tuple
	got     []engine.Notification
	notify  []float64
	traffic [3]int64
}

func (w *libSAI) setup(traced bool) (instance, error) {
	cluster, err := cqjoin.NewCluster(w.config())
	if err != nil {
		return nil, err
	}
	in := &libInst{w: w, cluster: cluster}
	if traced {
		in.tr = newTracer(w.catalog)
		in.tr.wrap(cluster.Overlay(), func(*chord.Node) bool { return true })
		cluster.SetDurable(timedEngine{eng: cluster.Engine(), t: in.tr})
	}
	// Notifications are delivered synchronously inside Publish, on the
	// goroutine holding mu, so the collector needs no lock of its own.
	cluster.OnNotify(in.onNotify)
	for q, sql := range w.sqls {
		if in.tr != nil {
			in.tr.parseQuery(sql)
		}
		qq, err := cluster.Node(w.subNode[q]).Subscribe(sql)
		if err != nil {
			return nil, fmt.Errorf("subscribe %q: %w", sql, err)
		}
		in.queries = append(in.queries, qq)
	}
	return in, nil
}

func (in *libInst) onNotify(n engine.Notification) {
	in.got = append(in.got, n)
	in.notify = append(in.notify, ms(time.Since(in.ph.due(in.cur))))
}

func (in *libInst) isPub(int) bool { return true }

func (in *libInst) replay(rate float64) *phase {
	pubs := in.w.pubs
	in.tuples = make([]*relation.Tuple, len(pubs))
	in.got, in.notify = nil, nil
	tr := in.cluster.Traffic()
	in.traffic = [3]int64{tr.TotalHops(), tr.TotalMessages(), tr.TotalBytes()}
	p := newPhase(len(pubs), rate)
	in.ph = p
	g := generator{workers: runtime.NumCPU(), issue: func(_, i int) error {
		in.mu.Lock()
		defer in.mu.Unlock()
		in.cur = i
		t, err := in.cluster.Node(pubs[i].node).Publish(pubs[i].rel, pubs[i].vals...)
		in.tuples[i] = t
		return err
	}}
	g.run(p)
	return p
}

func (in *libInst) notifyMS() []float64 { return in.notify }

// check compares the delivered notifications with engine.Oracle's
// reference join over the stamped queries and tuples. SAI promises the
// oracle's set of distinct contents (query key and projected values;
// pairs that project alike may share one notification, Section 4.4), so
// an expected content never delivered is missing, and a delivery is
// unexpected unless it is a true match (subscriber, content and the
// pair's publication times) delivered for the first time.
func (in *libInst) check() (tally, bool) {
	// The oracle's answer is cached by stream position rather than by
	// publication time: every query is in before the first publication,
	// so which pairs match does not depend on the order the workers
	// happened to publish in.
	var queries strings.Builder
	var maxInsT int64
	for _, q := range in.queries {
		fmt.Fprintf(&queries, "%s@%d,", q.Key(), q.InsT())
		maxInsT = max(maxInsT, q.InsT())
	}
	pos := make(map[int64]int, len(in.tuples))
	for i, t := range in.tuples {
		if t != nil {
			pos[t.PubT()] = i
			if t.PubT() <= maxInsT {
				return tally{examples: []string{"publication stamped before a subscription"}}, false
			}
		}
	}
	w := in.w
	if w.wantContents == nil || w.wantQueries != queries.String() {
		contents, deliveries := oracleAnswer(in.queries, in.tuples)
		w.wantContents, w.wantDeliveries = contents, make(map[string]bool, len(deliveries))
		for k := range deliveries {
			w.wantDeliveries[byPosition(k, pos)] = true
		}
		w.wantQueries = queries.String()
	}
	t := checkContents(w.wantContents, w.wantDeliveries, in.got, pos)
	in.got, in.notify = nil, nil
	return t, false
}

// byPosition rewrites a delivery key's trailing publication times
// ("...|leftPubT|rightPubT") as stream positions.
func byPosition(k string, pos map[int64]int) string {
	j := strings.LastIndexByte(k, '|')
	i := strings.LastIndexByte(k[:j], '|')
	at := func(s string) string {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			if p, ok := pos[v]; ok {
				return "#" + strconv.Itoa(p)
			}
		}
		return "?" + s
	}
	return k[:i+1] + at(k[i+1:j]) + "|" + at(k[j+1:])
}

// oracleAnswer is engine.Oracle's answer over the whole history,
// computed one query and join value at a time: a pair can match only when
// both sides evaluate to the same join value, so the union of the
// buckets' answers is the full answer, at a cost that follows the matches
// rather than the product of the relations' sizes.
func oracleAnswer(queries []*query.Query, tuples []*relation.Tuple) (contents, deliveries map[string]bool) {
	byRel := make(map[string][]*relation.Tuple)
	for _, t := range tuples {
		if t != nil {
			byRel[t.Relation()] = append(byRel[t.Relation()], t)
		}
	}
	contents, deliveries = make(map[string]bool), make(map[string]bool)
	for _, q := range queries {
		var sides [2]map[relation.Value][]*relation.Tuple
		for i, side := range []query.Side{query.SideLeft, query.SideRight} {
			sides[i] = make(map[relation.Value][]*relation.Tuple)
			for _, t := range byRel[q.Rel(side).Name()] {
				if v, err := q.EvalSide(side, t); err == nil {
					sides[i][v] = append(sides[i][v], t)
				}
			}
		}
		for v, lefts := range sides[0] {
			rights := sides[1][v]
			if len(rights) == 0 {
				continue
			}
			o := engine.NewOracle()
			o.AddQuery(q)
			for _, t := range lefts {
				o.AddTuple(t)
			}
			if q.Rel(query.SideRight).Name() != q.Rel(query.SideLeft).Name() {
				for _, t := range rights {
					o.AddTuple(t)
				}
			}
			for k := range o.ExpectedContentKeys() {
				contents[k] = true
			}
			for k := range o.ExpectedDeliveries() {
				deliveries[k] = true
			}
		}
	}
	return contents, deliveries
}

// checkContents compares delivered notifications with the oracle's
// distinct contents and match identities (see libInst.check).
func checkContents(contents, deliveries map[string]bool, got []engine.Notification, pos map[int64]int) tally {
	t := tally{reference: len(contents), delivered: len(got)}
	seen := make(map[string]bool, len(got))
	covered := make(map[string]bool, len(contents))
	for i := range got {
		for k := range engine.DeliveryKeys(got[i : i+1]) {
			k = byPosition(k, pos)
			if seen[k] || !deliveries[k] {
				t.unexpected++
				if len(t.examples) < 2 {
					t.examples = append(t.examples, "unexpected "+k)
				}
			}
			seen[k] = true
		}
		covered[got[i].ContentKey()] = true
	}
	for k := range contents {
		if !covered[k] {
			t.missing++
			if len(t.examples) < 4 {
				t.examples = append(t.examples, "missing "+k)
			}
		}
	}
	return t
}

func (in *libInst) layers(p *phase, m map[string]float64) error {
	pubs := float64(p.n)
	in.tr.layerMetrics(p.n, m)
	tr := in.cluster.Traffic()
	m["chord.hops_per_pub"] = float64(tr.TotalHops()-in.traffic[0]) / pubs
	m["chord.msgs_per_pub"] = float64(tr.TotalMessages()-in.traffic[1]) / pubs
	m["chord.bytes_per_pub"] = float64(tr.TotalBytes()-in.traffic[2]) / pubs
	m["engine.notifs_per_pub"] = float64(len(in.got)) / pubs
	m["engine.sink_len"] = float64(len(in.cluster.Notifications()))
	m["engine.storage_total"] = in.cluster.StorageLoad().Total
	m["engine.tf_gini"] = in.cluster.FilteringLoad().Gini
	return nil
}

// recover writes the cluster's end state as a checkpoint and times a
// fresh cqjoind restoring it.
func (in *libInst) recover() (float64, int, error) {
	dir := filepath.Join(in.w.workdir, "recover")
	if err := checkpointTo(dir, in.w.catalog, in.cluster.Engine()); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	return timeRecovery(daemon.Config{Nodes: in.w.nodes, Algorithm: "sai", SchemaDSL: in.w.dsl, Seed: programSeed, StateDir: dir})
}

func (in *libInst) close() error { return nil }

// checkpointTo writes eng's whole state as a durable snapshot in a fresh
// dir, exactly as a cqjoind checkpoint would.
func checkpointTo(dir string, catalog *relation.Catalog, eng *engine.Engine) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := durable.Open(dir, catalog, durable.Options{SnapshotEvery: -1})
	if err != nil {
		return err
	}
	if _, err := st.Recover(eng); err != nil {
		st.Abandon()
		return err
	}
	err = st.Checkpoint()
	st.Abandon()
	return err
}
