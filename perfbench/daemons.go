package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/daemon"
)

// The daemon workloads join Orders with Shipments on Product. Every query
// selects one customer's orders and carries both publication ids in its
// select list, so each notification names the pair that produced it.
const (
	daemonSchema = "Orders(Id,Customer,Product);Shipments(Id,Product,Depot)"
	joinSQL      = "SELECT O.Id, S.Id FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product AND O.Customer = 'c%d'"
	depots       = 20
)

type opKind uint8

const (
	opPub opKind = iota
	opSub
	opUnsub
)

// dop is one pre-drawn op of a daemon workload.
type dop struct {
	kind opKind
	// slot and rank pick the publishing ring position: the rank-th
	// position (mod their count) among those the slot-th daemon owns, so
	// publications split evenly between daemons whatever the ring looks
	// like. A single daemon owns every position.
	slot, rank int
	pub        pubRec
	body       []byte // request line after the node number
	query      int    // sub/unsub: index into the workload's queries
	churn      int    // sub/unsub: position among churn ops
}

// daemonWL is a workload against self-hosted cqjoind servers: tcp-overlay
// (two daemons on a loopback TCP overlay) or durable-churn (one daemon
// with a state directory, and subscriptions coming and going).
type daemonWL struct {
	procs   int
	nodes   int
	offered float64
	durable bool
	workdir string
	queries []queryRec // initial ones first
	initial int
	subNode []int // ring position of each initial subscriber
	ops     []dop
	pubs    int
}

// newDaemonWL draws the stream: publications alternate between Orders
// and Shipments rows over `products` random products, and every
// 1/churnShare-th op is a subscribe or unsubscribe.
func newDaemonWL(procs, nodes, queries, stream, products int, churnShare, rate float64, seed int64, workdir string) *daemonWL {
	w := &daemonWL{procs: procs, nodes: nodes, offered: rate,
		durable: churnShare > 0, workdir: workdir, initial: queries}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(procs)))
	// cur is each customer's live query. A churn op either subscribes a
	// replacement for the next customer's query, in turn, or unsubscribes
	// the query the last replacement superseded, so every customer keeps
	// one live query and the join's output and stored state stay steady
	// through the churn.
	//
	// The initial subscribers sit at ring positions drawn once for all
	// seeds: each daemon's engine draws SAI's index attribute for the
	// queries it hosts in subscription order, so seed-dependent placement
	// would change which queries store their rewrites on which side.
	place := rand.New(rand.NewSource(programSeed))
	cur := make([]int, queries)
	for q := 0; q < queries; q++ {
		w.queries = append(w.queries, queryRec{customer: q, minID: -1, to: noEnd})
		w.subNode = append(w.subNode, place.Intn(nodes))
		cur[q] = q
	}
	churns, superseded := 0, -1
	churnEvery := 0
	if churnShare > 0 {
		churnEvery = int(1/churnShare + 0.5)
	}
	for i := 0; i < stream; i++ {
		op := dop{slot: i % procs, rank: rng.Intn(1 << 20)}
		if churnEvery > 0 && i%churnEvery == churnEvery-1 {
			op.churn = churns
			churns++
			if superseded >= 0 {
				op.kind, op.query = opUnsub, superseded
				superseded = -1
			} else {
				// A fresh SQL string per subscription: the id bound makes
				// each text unique and admits only orders from now on.
				c := (churns / 2) % queries
				op.kind, op.query = opSub, len(w.queries)
				w.queries = append(w.queries, queryRec{customer: c, minID: i, to: noEnd})
				superseded, cur[c] = cur[c], op.query
			}
			w.ops = append(w.ops, op)
			continue
		}
		op.pub = pubRec{id: i, order: w.pubs%2 == 0, product: rng.Intn(products)}
		if op.pub.order {
			op.pub.customer = rng.Intn(queries)
			op.body = []byte(fmt.Sprintf(`,"relation":"Orders","values":[%d,"c%d","p%d"]}`+"\n", i, op.pub.customer, op.pub.product))
		} else {
			op.body = []byte(fmt.Sprintf(`,"relation":"Shipments","values":[%d,"p%d","d%d"]}`+"\n", i, op.pub.product, rng.Intn(depots)))
		}
		w.ops = append(w.ops, op)
		w.pubs++
	}
	return w
}

func (w *daemonWL) rate() float64 { return w.offered }

func (w *daemonWL) describe() string {
	return fmt.Sprintf("daemons=%d nodes=%d queries=%d ops=%d publications=%d churn_ops=%d rate=%.0f/s algorithm=SAI window=none durable=%v",
		w.procs, w.nodes, w.initial, len(w.ops), w.pubs, len(w.ops)-w.pubs, w.offered, w.durable)
}

func (w *daemonWL) sql(q int) string {
	s := fmt.Sprintf(joinSQL, w.queries[q].customer)
	if w.queries[q].minID >= 0 {
		s += fmt.Sprintf(" AND O.Id >= %d", w.queries[q].minID)
	}
	return s
}

// daemonInst is one set of running daemons and the generator's client
// connections to them.
type daemonInst struct {
	w        *daemonWL
	servers  []*daemon.Server
	serveWG  sync.WaitGroup
	conns    []*client // one per generator worker
	owner    []int     // ring position -> index of the daemon hosting it
	owned    [][]int   // ring positions each daemon hosts
	stateDir string
	tr       *tracer
	ph       *phase

	queries []queryRec
	epochs  []int   // per op: churn epoch a publication was applied in
	pubts   []int64 // per op: publication time the daemon acked

	// gate orders publications against churn ops: publications hold it
	// shared, churn ops exclusively, so every publication falls in a
	// known epoch between two churn ops.
	gate      sync.RWMutex
	epoch     int
	churnDone atomic.Int64

	// setupClock is each daemon's logical clock once the initial queries
	// are in: an upper bound on the insertion time of the queries it hosts.
	setupClock []int64
	stats0     []map[string]interface{} // traced: stats when the replay began
	statsErr   error
	wal        walWatch
	closed     bool
}

// overlayPort is the fixed loopback port of daemon i's overlay
// listener. Ring ownership follows consistent hashing of the overlay
// addresses, so fixing them makes it the same on every run and seed: the
// first daemon owns 29 of the 64 ring positions. Ephemeral ports would
// move ownership, and with it the work split and the known tcp-overlay
// notification shortfall, from run to run.
func overlayPort(i int) int { return 17473 + i }

func (w *daemonWL) setup(traced bool) (instance, error) {
	in := &daemonInst{w: w, queries: append([]queryRec(nil), w.queries...)}
	if err := in.start(); err != nil {
		in.close()
		return nil, err
	}
	if traced {
		catalog, err := daemon.ParseSchemaDSL(daemonSchema)
		if err != nil {
			in.close()
			return nil, err
		}
		in.tr = newTracer(catalog)
		for s, srv := range in.servers {
			owner := make(map[string]bool)
			for _, n := range in.owned[s] {
				owner[srv.Cluster().Node(n).Key()] = true
			}
			in.tr.wrap(srv.Cluster().Overlay(), func(dst *chord.Node) bool { return owner[dst.Key()] })
			if !w.durable {
				srv.Cluster().SetDurable(timedEngine{eng: srv.Cluster().Engine(), t: in.tr})
			}
		}
		for q := 0; q < w.initial; q++ {
			in.tr.parseQuery(w.sql(q))
		}
	}
	for q := 0; q < w.initial; q++ {
		// Subscribers sit anywhere on the ring, so each daemon hosts the
		// share of queries its ring ownership gives it.
		node := w.subNode[q]
		key, err := in.conns[in.owner[node]].subscribe(node, w.sql(q))
		if err != nil {
			in.close()
			return nil, err
		}
		in.queries[q].key = key
	}
	for _, srv := range in.servers {
		in.setupClock = append(in.setupClock, srv.Cluster().Overlay().Clock().Now())
	}
	return in, nil
}

// start brings up the daemons as load.NewSelfHostedTCP does, but on the
// fixed overlay ports, and dials one connection per generator worker.
func (in *daemonInst) start() error {
	w := in.w
	var lns []net.Listener
	var peers []string
	if w.procs > 1 {
		for i := 0; i < w.procs; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", overlayPort(i)))
			if err != nil {
				for _, l := range lns {
					l.Close()
				}
				return err
			}
			lns = append(lns, ln)
			peers = append(peers, ln.Addr().String())
		}
	}
	for i := 0; i < w.procs; i++ {
		cfg := daemon.Config{Nodes: w.nodes, Algorithm: "sai", SchemaDSL: daemonSchema, Seed: programSeed}
		if w.procs > 1 {
			cfg.OverlayAddr, cfg.Peers = peers[i], peers
		}
		if w.durable {
			in.stateDir = filepath.Join(w.workdir, "state")
			if err := os.RemoveAll(in.stateDir); err != nil {
				return err
			}
			cfg.StateDir = in.stateDir
		}
		srv, err := daemon.New(cfg)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return fmt.Errorf("daemon %d: %w", i, err)
		}
		in.servers = append(in.servers, srv)
		if w.procs > 1 {
			if err := srv.StartOverlay(lns[i]); err != nil {
				return err
			}
		}
		if err := serve(srv, &in.serveWG); err != nil {
			return err
		}
	}
	in.owner, in.owned = make([]int, w.nodes), make([][]int, w.procs)
	for n := range in.owner {
		for s, srv := range in.servers {
			if srv.OwnsNode(n) {
				in.owner[n] = s
				in.owned[s] = append(in.owned[s], n)
			}
		}
	}
	for s := range in.owned {
		if len(in.owned[s]) == 0 {
			return fmt.Errorf("daemon %d owns no ring position", s)
		}
	}
	for wk := 0; wk < runtime.NumCPU(); wk++ {
		srv := in.servers[wk%w.procs]
		c, err := dial(srv.Addr().String())
		if err != nil {
			return err
		}
		in.conns = append(in.conns, c)
		// Each daemon streams a notification to its listeners once; one
		// listening connection per daemon sees every notification once.
		if wk < w.procs {
			if err := c.listen(); err != nil {
				return err
			}
		}
	}
	return nil
}

// serve starts srv's protocol listener on a loopback port; wg waits for
// its accept loop, which ends when srv is closed.
func serve(srv *daemon.Server, wg *sync.WaitGroup) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	for srv.Addr() == nil {
		runtime.Gosched()
	}
	return nil
}

func (in *daemonInst) isPub(i int) bool { return in.w.ops[i].kind == opPub }

func (in *daemonInst) node(op *dop) int {
	own := in.owned[op.slot]
	return own[op.rank%len(own)]
}

func (in *daemonInst) replay(rate float64) *phase {
	w := in.w
	in.epochs = make([]int, len(w.ops))
	in.pubts = make([]int64, len(w.ops))
	in.epoch = 0
	in.churnDone.Store(0)
	p := newPhase(len(w.ops), rate)
	in.ph = p
	for _, c := range in.conns {
		c.ph = p
		c.got = make(map[string]int)
		c.notify = c.notify[:0]
	}
	if in.tr != nil {
		in.stats0, in.statsErr = in.stats()
		if w.durable {
			in.wal.reset(filepath.Join(in.stateDir, "wal.log"))
		}
	}
	g := generator{workers: len(in.conns), issue: in.issue, wait: func(wk int, until time.Time) {
		in.conns[wk].pump(until)
	}}
	if !w.durable {
		// A worker's connection reaches one daemon, so each worker
		// publishes for the ring positions its daemon owns.
		g.owner = func(i int) int { return w.ops[i].slot }
	}
	g.run(p)
	// Notifications complete before the publication that triggers them is
	// acked; drain what is still in flight to the listeners.
	for _, c := range in.conns {
		if c.listening {
			c.pump(time.Now().Add(100 * time.Millisecond))
		}
		if c.err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("listener: %w", c.err)
			}
		}
	}
	return p
}

// issue sends op i on worker wk's connection.
func (in *daemonInst) issue(wk, i int) error {
	op := &in.w.ops[i]
	c := in.conns[wk]
	if op.kind == opPub {
		if in.w.durable {
			for !in.gate.TryRLock() {
				c.pump(time.Now().Add(50 * time.Microsecond))
			}
			defer in.gate.RUnlock()
		}
		in.epochs[i] = in.epoch
		var line []byte
		line = append(line, `{"op":"publish","node":`...)
		line = strconv.AppendInt(line, int64(in.node(op)), 10)
		line = append(line, op.body...)
		resp, err := c.call(line)
		if err != nil {
			return err
		}
		if in.tr != nil && in.w.durable {
			in.wal.observe(time.Since(in.ph.due(i)))
		}
		return okPubT(resp, &in.pubts[i])
	}
	// Churn ops run one at a time, in stream order, with no publication
	// in flight.
	for in.churnDone.Load() != int64(op.churn) {
		c.pump(time.Now().Add(50 * time.Microsecond))
	}
	for !in.gate.TryLock() {
		c.pump(time.Now().Add(50 * time.Microsecond))
	}
	defer in.gate.Unlock()
	defer in.churnDone.Add(1)
	q := &in.queries[op.query]
	var err error
	if op.kind == opSub {
		if in.tr != nil {
			in.tr.parseQuery(in.w.sql(op.query))
		}
		q.key, err = c.subscribe(in.node(op), in.w.sql(op.query))
		in.epoch++
		q.from = in.epoch
	} else {
		_, err = c.call([]byte(fmt.Sprintf(`{"op":"unsubscribe","key":%q}`+"\n", q.key)))
		in.epoch++
		q.to = in.epoch
	}
	return err
}

func (in *daemonInst) notifyMS() []float64 {
	var out []float64
	for _, c := range in.conns {
		out = append(out, c.notify...)
	}
	return out
}

// check compares the notifications the listeners received, as a content
// multiset, with the benchmark's reference join, which honours each
// query's subscribe and unsubscribe points.
func (in *daemonInst) check() (tally, bool) {
	var pubs []pubRec
	for i := range in.w.ops {
		op := &in.w.ops[i]
		if op.kind == opPub && in.pubts[i] > 0 {
			p := op.pub
			p.epoch = in.epochs[i]
			pubs = append(pubs, p)
		}
	}
	var qs []*queryRec
	for i := range in.queries {
		qs = append(qs, &in.queries[i])
	}
	want := referenceJoin(qs, pubs)
	got := make(map[string]int)
	for _, c := range in.conns {
		for k, n := range c.got {
			got[k] += n
		}
		c.got = nil
	}
	t := compare(want, got)
	explained := t.unexpected == 0 && in.w.procs > 1
	for k, n := range want {
		if explained && got[k] < n {
			explained = in.clockSkewed(k)
		}
	}
	return t, explained
}

// clockSkewed reports whether the missing notification with content key
// k fits the known tcp-overlay defect: each daemon stamps publications
// and query insertions with its own logical clock, and the engine drops
// a pair when a tuple's publication time is below the query's insertion
// time, so a publication acked by a daemon whose clock lagged the
// subscriber's daemon loses its matches with that query. It does when
// one of the pair was stamped below the subscriber daemon's clock at the
// end of set-up.
func (in *daemonInst) clockSkewed(k string) bool {
	parts := strings.Split(k, "|")
	if len(parts) != 3 {
		return false
	}
	oid, err1 := strconv.Atoi(parts[1])
	sid, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || oid >= len(in.pubts) || sid >= len(in.pubts) {
		return false
	}
	for q := 0; q < in.w.initial; q++ {
		if in.queries[q].key == parts[0] {
			bound := in.setupClock[in.owner[in.w.subNode[q]]]
			return min(in.pubts[oid], in.pubts[sid]) < bound
		}
	}
	return false
}

// stats asks every daemon for its stats op.
func (in *daemonInst) stats() ([]map[string]interface{}, error) {
	var out []map[string]interface{}
	for s := range in.servers {
		resp, err := in.conns[s].call([]byte(`{"op":"stats"}` + "\n"))
		if err != nil {
			return nil, err
		}
		var m map[string]interface{}
		if err := json.Unmarshal(resp, &m); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// statDelta sums a numeric stats field (path into nested objects) over
// the daemons, minus its value when the replay started.
func statDelta(before, after []map[string]interface{}, path ...string) float64 {
	get := func(m map[string]interface{}) float64 {
		var v interface{} = m
		for _, p := range path {
			mm, ok := v.(map[string]interface{})
			if !ok {
				return 0
			}
			v = mm[p]
		}
		f, _ := v.(float64)
		return f
	}
	total := 0.0
	for i := range after {
		total += get(after[i])
		if i < len(before) {
			total -= get(before[i])
		}
	}
	return total
}

func (in *daemonInst) layers(p *phase, m map[string]float64) error {
	if in.statsErr != nil {
		return in.statsErr
	}
	after, err := in.stats()
	if err != nil {
		return err
	}
	pubs := float64(in.w.pubs)
	in.tr.layerMetrics(in.w.pubs, m)
	events := 0
	for _, c := range in.conns {
		for _, n := range c.got {
			events += n
		}
	}
	var rtt []float64
	for i, d := range p.rtt {
		if in.isPub(i) {
			rtt = append(rtt, us(d))
		}
	}
	m["daemon.req_rtt_us_p50"] = quantile(rtt, 0.5)
	m["daemon.req_rtt_us_p99"] = quantile(rtt, 0.99)
	m["daemon.notify_events_per_pub"] = float64(events) / pubs
	m["engine.notifs_per_pub"] = float64(events) / pubs
	m["engine.sink_len"] = statDelta(nil, after, "notifications")
	m["chord.hops_per_pub"] = statDelta(in.stats0, after, "hops") / pubs
	m["chord.msgs_per_pub"] = statDelta(in.stats0, after, "messages") / pubs
	m["chord.bytes_per_pub"] = statDelta(in.stats0, after, "bytes") / pubs
	m["transport.frames_per_pub"] = statDelta(in.stats0, after, "transport", "transport.frames_out") / pubs
	m["transport.bytes_per_pub"] = statDelta(in.stats0, after, "transport", "transport.frame_bytes_out") / pubs
	m["transport.retries"] = statDelta(in.stats0, after, "transport", "transport.retries")
	var storage, gini float64
	for _, srv := range in.servers {
		storage += srv.Cluster().StorageLoad().Total
		gini += srv.Cluster().FilteringLoad().Gini / float64(len(in.servers))
	}
	m["engine.storage_total"] = storage
	m["engine.tf_gini"] = gini
	if in.w.durable {
		m["durable.wal_bytes_per_op"] = in.wal.bytesPerOp()
		m["durable.checkpoints"] = float64(in.wal.shrinks)
		m["durable.checkpoint_ms_max"] = ms(in.wal.spanMax)
		if fi, err := os.Stat(filepath.Join(in.stateDir, "snapshot.bin")); err == nil {
			m["durable.snapshot_bytes"] = float64(fi.Size())
		}
	}
	return nil
}

// recover times a fresh daemon restoring this instance's state: for
// durable-churn the state directory as a crash leaves it (snapshot plus
// WAL tail), for tcp-overlay the first daemon's end state written as a
// checkpoint.
func (in *daemonInst) recover() (float64, int, error) {
	dir := filepath.Join(in.w.workdir, "recover")
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	if in.w.durable {
		// Closing the server drains every client op, so the files hold
		// exactly the acknowledged, fsynced records a kill -9 would leave.
		if err := in.servers[0].Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			return 0, 0, err
		}
		if err := copyDir(in.stateDir, dir); err != nil {
			return 0, 0, err
		}
	} else {
		catalog, err := daemon.ParseSchemaDSL(daemonSchema)
		if err != nil {
			return 0, 0, err
		}
		if err := checkpointTo(dir, catalog, in.servers[0].Cluster().Engine()); err != nil {
			return 0, 0, err
		}
	}
	return timeRecovery(daemon.Config{Nodes: in.w.nodes, Algorithm: "sai", SchemaDSL: daemonSchema, Seed: programSeed, StateDir: dir})
}

// timeRecovery starts a daemon on cfg's state directory and returns how
// long it took to open and replay the state and answer a first request,
// and how many log records it replayed. It collects garbage first, so
// every measurement starts from the same collector state.
func timeRecovery(cfg daemon.Config) (float64, int, error) {
	runtime.GC()
	t0 := time.Now()
	srv, err := daemon.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	defer func() {
		_ = srv.Shutdown()
		wg.Wait()
	}()
	if err := serve(srv, &wg); err != nil {
		return 0, 0, err
	}
	c, err := dial(srv.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.conn.Close()
	if _, err := c.call([]byte(`{"op":"stats"}` + "\n")); err != nil {
		return 0, 0, err
	}
	return time.Since(t0).Seconds(), srv.Recovery().Replayed, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (in *daemonInst) close() error {
	if in.closed {
		return nil
	}
	in.closed = true
	for _, c := range in.conns {
		c.conn.Close()
	}
	var first error
	for _, srv := range in.servers {
		// Shutdown would hand every ring position to the other daemon
		// first; only a durable daemon needs it, to close its store.
		stop := srv.Close
		if in.w.durable {
			stop = srv.Shutdown
		}
		if err := stop(); err != nil && first == nil && !errors.Is(err, net.ErrClosed) {
			first = err
		}
	}
	in.serveWG.Wait()
	if in.stateDir != "" {
		if err := os.RemoveAll(in.stateDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// walWatch follows the WAL's size after each acked publication in a
// traced durable run: growth is appended log bytes, a shrink is a
// checkpoint, and the publication that spanned it bounds its duration.
type walWatch struct {
	mu      sync.Mutex
	path    string
	last    int64
	grown   int64
	ops     int
	shrinks int
	spanMax time.Duration
}

// reset starts watching path; call it before the replay's workers start.
func (ww *walWatch) reset(path string) {
	ww.path, ww.last, ww.grown, ww.ops, ww.shrinks, ww.spanMax = path, 0, 0, 0, 0, 0
	if fi, err := os.Stat(path); err == nil {
		ww.last = fi.Size()
	}
}

func (ww *walWatch) observe(span time.Duration) {
	fi, err := os.Stat(ww.path)
	if err != nil {
		return
	}
	ww.mu.Lock()
	defer ww.mu.Unlock()
	if size := fi.Size(); size < ww.last {
		ww.shrinks++
		if span > ww.spanMax {
			ww.spanMax = span
		}
	} else {
		ww.grown += size - ww.last
		ww.ops++
	}
	ww.last = fi.Size()
}

func (ww *walWatch) bytesPerOp() float64 {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	return per(float64(ww.grown), float64(ww.ops))
}

// client is one connection speaking cqjoind's JSON line protocol, owned
// by one generator worker. A listening client receives notification
// events interleaved with responses; it reads them while waiting for a
// response and while its worker waits for the next op to fall due, and
// timestamps each on arrival.
type client struct {
	conn      net.Conn
	br        *bufio.Reader
	partial   []byte
	listening bool
	ph        *phase
	got       map[string]int
	notify    []float64
	err       error
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), got: make(map[string]int)}, nil
}

func (c *client) listen() error {
	if _, err := c.call([]byte(`{"op":"listen"}` + "\n")); err != nil {
		return err
	}
	c.listening = true
	return nil
}

// subscribe poses sql at ring position node and returns the query key.
func (c *client) subscribe(node int, sql string) (string, error) {
	req, err := json.Marshal(map[string]interface{}{"op": "subscribe", "node": node, "sql": sql})
	if err != nil {
		return "", err
	}
	resp, err := c.call(append(req, '\n'))
	if err != nil {
		return "", err
	}
	var r struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(resp, &r); err != nil || r.Key == "" {
		return "", fmt.Errorf("subscribe %q: bad response %s", sql, resp)
	}
	return r.Key, nil
}

// call sends one request line and returns its response line, handling
// any events that arrive first. The returned slice is valid until the
// next read.
func (c *client) call(req []byte) ([]byte, error) {
	if err := c.conn.SetWriteDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	for {
		line, err := c.readLine(time.Now().Add(30 * time.Second))
		if err != nil {
			return nil, err
		}
		if !c.event(line) {
			if !bytes.Contains(line, []byte(`"ok":true`)) {
				return nil, fmt.Errorf("daemon: %s", bytes.TrimSpace(line))
			}
			return line, nil
		}
	}
}

// pump handles events until the given time.
func (c *client) pump(until time.Time) {
	if !c.listening {
		if d := time.Until(until); d > 0 {
			time.Sleep(d)
		}
		return
	}
	for {
		line, err := c.readLine(until)
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) && c.err == nil {
				c.err = err
			}
			return
		}
		c.event(line)
	}
}

// event records line if it is a notification event.
func (c *client) event(line []byte) bool {
	if !bytes.HasPrefix(line, []byte(`{"event"`)) {
		return false
	}
	at := time.Now()
	var ev struct {
		Query  string    `json:"query"`
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(line, &ev); err != nil || len(ev.Values) != 2 {
		c.got["malformed "+string(bytes.TrimSpace(line))]++
		return true
	}
	oid, sid := int(ev.Values[0]), int(ev.Values[1])
	c.got[daemonContent(ev.Query, oid, sid)]++
	if c.ph != nil && oid >= 0 && sid >= 0 && oid < c.ph.n && sid < c.ph.n {
		c.notify = append(c.notify, ms(at.Sub(c.ph.due(max(oid, sid)))))
	}
	return true
}

// readLine returns the next full line, keeping a partial line across a
// read deadline.
func (c *client) readLine(deadline time.Time) ([]byte, error) {
	if err := c.conn.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	for {
		chunk, err := c.br.ReadSlice('\n')
		if err == nil {
			if len(c.partial) == 0 {
				return chunk, nil
			}
			line := append(c.partial, chunk...)
			c.partial = line[:0]
			return line, nil
		}
		c.partial = append(c.partial, chunk...)
		if err != bufio.ErrBufferFull {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// okPubT parses the publication time out of a publish ack.
func okPubT(resp []byte, pubt *int64) error {
	i := bytes.Index(resp, []byte(`"pubt":`))
	if i < 0 {
		return fmt.Errorf("daemon: publish ack without pubt: %s", resp)
	}
	rest := resp[i+len(`"pubt":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	if err != nil {
		return fmt.Errorf("daemon: publish ack %s: %w", resp, err)
	}
	*pubt = v
	return nil
}
