// Benchmarks regenerating every table and figure of the paper's evaluation
// chapter (one benchmark per experiment id; see DESIGN.md §3 for the
// index). Each benchmark reruns the experiment b.N times at CI scale and
// reports the headline series as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints machine-readable rows.
//
// Every benchmark additionally records a manifest entry (wall time,
// allocations, headline paper metrics); when at least one benchmark ran,
// TestMain writes the collected entries to BENCH_<label>.json (label from
// $BENCH_LABEL, default "local") in the current directory. CI uploads that
// file as an artifact and gates it against the committed BENCH_baseline.json
// with cmd/benchdiff; see DESIGN.md §7 and the README for the workflow.
// A plain `go test` run without -bench writes nothing.
//
// Use cmd/joinsim for the formatted tables and for thesis-scale runs.
package cqjoin_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/durable"
	"cqjoin/internal/engine"
	"cqjoin/internal/exp"
	"cqjoin/internal/id"
	"cqjoin/internal/load"
	"cqjoin/internal/metrics"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/workload"
)

// benchManifest collects one entry per benchmark that ran in this process.
var benchManifest = obs.NewCollector()

// TestMain writes the benchmark manifest after the run. Test-only
// invocations collect no entries and write nothing, so `go test ./...`
// stays side-effect free.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchManifest.Len() > 0 {
		label := os.Getenv("BENCH_LABEL")
		if label == "" {
			label = "local"
		}
		path := "BENCH_" + label + ".json"
		man := benchManifest.Manifest(label)
		if err := man.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench manifest: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(os.Stderr, "bench: wrote %d manifest entries to %s\n", len(man.Entries), path)
		}
	}
	os.Exit(code)
}

// benchScale keeps every experiment under a few hundred milliseconds so
// the full -bench=. sweep stays laptop-friendly.
func benchScale() exp.Scale {
	return exp.Scale{Nodes: 192, Queries: 250, Tuples: 250, Seed: 1}
}

func scaleInfo(sc exp.Scale) obs.ScaleInfo {
	return obs.ScaleInfo{Nodes: sc.Nodes, Queries: sc.Queries, Tuples: sc.Tuples, Seed: sc.Seed}
}

// memDelta samples allocation counters around a benchmark body.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// perOp returns (allocs/op, bytes/op) since startMem, for n iterations.
func (d *memDelta) perOp(n int) (int64, int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if n <= 0 {
		n = 1
	}
	return int64(after.Mallocs-d.before.Mallocs) / int64(n),
		int64(after.TotalAlloc-d.before.TotalAlloc) / int64(n)
}

// runExperiment wraps one experiment as a benchmark, reports the value of
// the chosen numeric column of the chosen row as a custom metric, and
// records a manifest entry. A metric cell that is missing or unparsable is
// a benchmark failure: a silently skipped metric would make the manifest
// diff read "no regression" when the experiment in fact stopped reporting.
func runExperiment(b *testing.B, id string, metricRow, metricCol int, metricName string) {
	b.Helper()
	e, err := exp.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	mem := startMem()
	b.ResetTimer()
	var tab *exp.Table
	for i := 0; i < b.N; i++ {
		tab = e.Run(sc)
	}
	b.StopTimer()
	allocs, bytes := mem.perOp(b.N)
	if tab == nil || len(tab.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
	if metricRow >= len(tab.Rows) {
		b.Fatalf("%s: metric row %d out of range (table has %d rows)", id, metricRow, len(tab.Rows))
	}
	if metricCol >= len(tab.Rows[metricRow]) {
		b.Fatalf("%s: metric col %d out of range (row %d has %d cells)",
			id, metricCol, metricRow, len(tab.Rows[metricRow]))
	}
	cell := strings.TrimSuffix(tab.Rows[metricRow][metricCol], "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("%s: metric cell (%d,%d) %q is not numeric: %v", id, metricRow, metricCol, cell, err)
	}
	b.ReportMetric(v, metricName)
	benchManifest.Add(obs.Entry{
		Name:        b.Name(),
		Scale:       scaleInfo(sc),
		Iterations:  int64(b.N),
		WallNS:      b.Elapsed().Nanoseconds() / int64(b.N),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		// Experiment outputs are pure functions of code + seed in the
		// simulator, so the table metric gates hard.
		Metrics: map[string]obs.Metric{metricName: obs.Det(v, "")},
	})
}

func BenchmarkTable41(b *testing.B)          { runExperiment(b, "T4.1", 0, 7, "SAI-join-msgs") }
func BenchmarkFig48Multisend(b *testing.B)   { runExperiment(b, "F4.8", 4, 4, "iter/rec-ratio-k256") }
func BenchmarkFig52TrafficJFRT(b *testing.B) { runExperiment(b, "F5.2", 0, 2, "SAI-hops/tuple") }
func BenchmarkFig53QuerySweep(b *testing.B)  { runExperiment(b, "F5.3", 0, 2, "SAI-hops/tuple-minQ") }
func BenchmarkFig54Strategies(b *testing.B)  { runExperiment(b, "F5.4", 1, 1, "minrate-hops/tuple") }
func BenchmarkFig55BosRatio(b *testing.B)    { runExperiment(b, "F5.5", 4, 2, "minrate-hops-bos16") }
func BenchmarkFig56ReplFilter(b *testing.B)  { runExperiment(b, "F5.6", 3, 3, "k8-max-TF") }
func BenchmarkFig57ReplStorage(b *testing.B) { runExperiment(b, "F5.7", 3, 1, "k8-total-TS") }
func BenchmarkFig58WindowFilter(b *testing.B) {
	runExperiment(b, "F5.8", 0, 2, "evalTF-smallW-smallQ")
}
func BenchmarkFig59WindowStorage(b *testing.B) {
	runExperiment(b, "F5.9", 0, 2, "evalTS-smallW-smallQ")
}
func BenchmarkFig510LoadAllAlgos(b *testing.B) { runExperiment(b, "F5.10", 0, 3, "SAI-TF-gini") }
func BenchmarkFig511TwoLevel(b *testing.B)     { runExperiment(b, "F5.11", 2, 2, "DAIT-eval-TF") }
func BenchmarkFig512TupleFreq(b *testing.B)    { runExperiment(b, "F5.12", 0, 3, "SAI-mean-TF") }
func BenchmarkFig513QueryLoad(b *testing.B)    { runExperiment(b, "F5.13", 0, 3, "SAI-mean-TF") }
func BenchmarkFig514NetSize(b *testing.B)      { runExperiment(b, "F5.14", 0, 3, "SAI-mean-smallN") }
func BenchmarkFig515NetSizeTop(b *testing.B)   { runExperiment(b, "F5.15", 0, 3, "SAI-top1-smallN") }
func BenchmarkFig516DAIV(b *testing.B)         { runExperiment(b, "F5.16", 0, 3, "mean-TF-smallN") }
func BenchmarkX45DAIVKeyed(b *testing.B)       { runExperiment(b, "X4.5", 2, 3, "keyed/grouped-factor") }
func BenchmarkX71MultiWay(b *testing.B)        { runExperiment(b, "X7.1", 1, 1, "hops/tuple-k3") }

// BenchmarkHeadlineSAI runs the canonical SAI workload once per iteration
// and records the paper's headline metrics — hops/tuple, msgs/tuple, the
// TF/TS Gini coefficients and delivered notifications — as hard manifest
// metrics. This is the single entry the regression gate leans on most.
func BenchmarkHeadlineSAI(b *testing.B) {
	sc := benchScale()
	mem := startMem()
	b.ResetTimer()
	var m exp.Measurements
	for i := 0; i < b.N; i++ {
		m, _ = exp.Headline(sc)
	}
	b.StopTimer()
	allocs, bytes := mem.perOp(b.N)
	b.ReportMetric(m.HopsPerTuple, "hops/tuple")
	b.ReportMetric(m.TF.Gini, "TF-gini")
	benchManifest.Add(obs.Entry{
		Name:        b.Name(),
		Scale:       scaleInfo(sc),
		Iterations:  int64(b.N),
		WallNS:      b.Elapsed().Nanoseconds() / int64(b.N),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Metrics: map[string]obs.Metric{
			"hops_per_tuple": obs.Det(m.HopsPerTuple, "hops"),
			"msgs_per_tuple": obs.Det(m.MsgsPerTuple, "msgs"),
			"tf_gini":        obs.Det(m.TF.Gini, ""),
			"ts_gini":        obs.Det(m.TS.Gini, ""),
			"tf_total":       obs.Det(m.TF.Total, "ops"),
			"ts_total":       obs.Det(m.TS.Total, "items"),
			"notifications":  {Value: float64(m.Notifications), Deterministic: true, LowerIsBetter: false},
		},
	})
}

// BenchmarkSkewedHotKeys is the skewed bench cell gating the adaptive
// hot-key sharding layer (DESIGN.md §13). Each iteration drives a Zipf
// θ=1.1 workload through SAI twice — sharding off, then on — and enforces
// the tentpole's promise in-bench: identical delivered notifications, the
// hottest evaluator shedding at least half its filtering load, and a
// lower evaluator Gini. The manifest records both arms plus the max-load
// ratio so benchdiff gates regressions of the rebalancing itself.
//
// The cell's scale differs from benchScale deliberately: a longer stream
// on a larger overlay lets the Zipf head tower over the warm tail (load
// grows superlinearly in key frequency), and the threshold promotes only
// that head. Promoting the warm tail too would scatter hundreds of
// low-heat replica buckets whose collisions rebuild the hotspot — the
// regime the detector's threshold exists to avoid.
func BenchmarkSkewedHotKeys(b *testing.B) {
	sc := exp.Scale{Nodes: 384, Queries: 60, Tuples: 1000, Seed: 1}
	type arm struct {
		eval   metrics.Distribution
		notifs []string
	}
	// Threshold 32 promotes the head (a few dozen inputs at this scale)
	// and leaves the tail cold; the infinite window keeps promotion a pure
	// function of the per-input event count.
	run := func(threshold int) arm {
		r := exp.Setup(engine.Config{
			Algorithm:       engine.SAI,
			HotKeyThreshold: threshold,
			HotKeyReplicas:  4,
			HotKeyWindow:    1 << 20,
		}, sc, workload.Params{Theta: load.SkewTheta})
		r.Eng.KeepNotifications()
		r.SubscribeT1(sc.Queries)
		r.ResetMeters()
		r.PublishTuples(sc.Tuples)
		keys := make([]string, 0, len(r.Eng.Notifications()))
		for _, n := range r.Eng.Notifications() {
			keys = append(keys, n.ContentKey())
		}
		sort.Strings(keys)
		if threshold > 0 && len(r.Eng.HotKeys()) == 0 {
			b.Fatalf("skewed workload promoted nothing at threshold %d", threshold)
		}
		return arm{eval: metrics.SummarizeInt(r.Eng.RoleLoads(metrics.Evaluator, false)), notifs: keys}
	}
	mem := startMem()
	b.ResetTimer()
	var off, on arm
	for i := 0; i < b.N; i++ {
		off = run(0)
		on = run(32)
	}
	b.StopTimer()
	allocs, bytes := mem.perOp(2 * b.N)
	if len(off.notifs) == 0 {
		b.Fatal("skewed workload produced no notifications")
	}
	if !reflect.DeepEqual(off.notifs, on.notifs) {
		b.Fatalf("sharding changed results: %d vs %d notifications", len(on.notifs), len(off.notifs))
	}
	ratio := 0.0
	if on.eval.Max > 0 {
		ratio = off.eval.Max / on.eval.Max
	}
	if ratio < 2 {
		b.Fatalf("max evaluator load ratio %.2f < 2 (off %.0f, on %.0f)", ratio, off.eval.Max, on.eval.Max)
	}
	if on.eval.Gini >= off.eval.Gini {
		b.Fatalf("evaluator Gini %.3f did not drop from %.3f", on.eval.Gini, off.eval.Gini)
	}
	b.ReportMetric(ratio, "max-load-ratio")
	b.ReportMetric(on.eval.Gini, "TF-gini-on")
	benchManifest.Add(obs.Entry{
		Name:        b.Name(),
		Scale:       scaleInfo(sc),
		Iterations:  int64(b.N),
		WallNS:      b.Elapsed().Nanoseconds() / int64(b.N),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Metrics: map[string]obs.Metric{
			"eval_max_off":   obs.Det(off.eval.Max, "ops"),
			"eval_max_on":    obs.Det(on.eval.Max, "ops"),
			"eval_gini_off":  obs.Det(off.eval.Gini, ""),
			"eval_gini_on":   obs.Det(on.eval.Gini, ""),
			"max_load_ratio": {Value: ratio, Unit: "x", Deterministic: true, LowerIsBetter: false},
		},
	})
}

// BenchmarkParallelSpeedup runs one load-distribution experiment
// sequentially and then on the full worker budget each iteration,
// verifying the two tables agree cell for cell — the determinism contract
// of DESIGN.md §8 exercised at bench scale — and reporting the wall-clock
// ratio. The speedup tracks available CPUs, so it gates soft.
func BenchmarkParallelSpeedup(b *testing.B) {
	defer exp.SetParallelism(0)
	e, err := exp.Lookup("F5.10")
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	workers := runtime.GOMAXPROCS(0)
	mem := startMem()
	b.ResetTimer()
	var seqNS, parNS int64
	for i := 0; i < b.N; i++ {
		exp.SetParallelism(1)
		t0 := time.Now()
		seq := e.Run(sc)
		seqNS += time.Since(t0).Nanoseconds()

		exp.SetParallelism(workers)
		t0 = time.Now()
		par := e.Run(sc)
		parNS += time.Since(t0).Nanoseconds()

		if len(seq.Rows) != len(par.Rows) {
			b.Fatalf("row counts diverge: sequential %d, parallel %d", len(seq.Rows), len(par.Rows))
		}
		for r := range seq.Rows {
			for c := range seq.Rows[r] {
				if seq.Rows[r][c] != par.Rows[r][c] {
					b.Fatalf("cell (%d,%d) diverges: sequential %q, parallel %q",
						r, c, seq.Rows[r][c], par.Rows[r][c])
				}
			}
		}
	}
	b.StopTimer()
	allocs, bytes := mem.perOp(2 * b.N)
	speedup := 0.0
	if parNS > 0 {
		speedup = float64(seqNS) / float64(parNS)
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(workers), "workers")
	benchManifest.Add(obs.Entry{
		Name:        b.Name(),
		Scale:       scaleInfo(sc),
		Iterations:  int64(b.N),
		WallNS:      b.Elapsed().Nanoseconds() / int64(b.N),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Metrics: map[string]obs.Metric{
			"speedup":     {Value: speedup, Deterministic: false, LowerIsBetter: false, Unit: "x"},
			"seq_wall_ns": obs.Noisy(float64(seqNS)/float64(b.N), "ns"),
			"par_wall_ns": obs.Noisy(float64(parNS)/float64(b.N), "ns"),
		},
	})
}

// Micro-benchmarks of the substrate operations the experiments lean on.

// BenchmarkSubstrateLookup measures one Chord lookup per iteration on a
// fixed overlay and reports the mean hop count — a real per-lookup metric,
// not a whole-experiment rerun.
func BenchmarkSubstrateLookup(b *testing.B) {
	sc := benchScale()
	net := chord.New(chord.Config{})
	net.AddNodes("peer", sc.Nodes)
	nodes := net.Nodes()
	if len(nodes) == 0 {
		b.Fatal("empty overlay")
	}
	mem := startMem()
	b.ResetTimer()
	var totalHops int64
	for i := 0; i < b.N; i++ {
		origin := nodes[i%len(nodes)]
		target := id.Hash("bench-lookup-" + strconv.Itoa(i))
		_, hops, err := origin.Lookup(target)
		if err != nil {
			b.Fatal(err)
		}
		totalHops += int64(hops)
	}
	b.StopTimer()
	allocs, bytes := mem.perOp(b.N)
	meanHops := float64(totalHops) / float64(b.N)
	b.ReportMetric(meanHops, "hops/lookup")
	benchManifest.Add(obs.Entry{
		Name:        b.Name(),
		Scale:       obs.ScaleInfo{Nodes: sc.Nodes, Seed: sc.Seed},
		Iterations:  int64(b.N),
		WallNS:      b.Elapsed().Nanoseconds() / int64(b.N),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		// Mean hops depends on b.N (which lookups ran), so it gates soft.
		Metrics: map[string]obs.Metric{"hops_per_lookup": obs.Noisy(meanHops, "hops")},
	})
}

// BenchmarkWALAppend measures the durability hot path (DESIGN.md §14):
// each iteration publishes one tuple through a durable store, which
// appends a CRC-framed record to the write-ahead log and fsyncs before
// acknowledging. Auto-checkpointing is disabled (SnapshotEvery < 0) so
// the log stays pure appends, and the measured WAL growth divided by
// b.N is the exact per-publish footprint — a pure function of the
// record codec at the pinned -benchtime 1x, so it gates hard. Wall time
// is fsync-dominated and gates soft through the entry's wall-ns field.
// The manifest entry carries the explicit name "wal-append" so the
// benchdiff gate keys on the subsystem, not the Go benchmark name.
func BenchmarkWALAppend(b *testing.B) {
	rs := relation.MustSchema("R", "A", "B", "C")
	ss := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(rs, ss)
	dir := b.TempDir()
	net := chord.New(chord.Config{})
	net.AddNodes("peer", 64)
	eng := engine.New(net, catalog, engine.Config{Seed: 7})
	st, err := durable.Open(dir, catalog, durable.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Abandon()
	if _, err := st.Recover(eng); err != nil {
		b.Fatal(err)
	}
	nodes := net.Nodes()
	if _, err := st.Subscribe(nodes[0], query.MustParse(catalog,
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)); err != nil {
		b.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.log")
	walSize := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			b.Fatal(err)
		}
		return fi.Size()
	}
	base := walSize()
	mem := startMem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch := rs
		if i%2 == 1 {
			sch = ss
		}
		tu := relation.MustTuple(sch,
			relation.N(float64(i%5)), relation.N(float64(i%3)), relation.N(0))
		if _, err := st.Publish(nodes[i%len(nodes)], tu); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	allocs, bytes := mem.perOp(b.N)
	perOp := float64(walSize()-base) / float64(b.N)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(perOp, "wal-B/op")
	benchManifest.Add(obs.Entry{
		Name:        "wal-append",
		Scale:       obs.ScaleInfo{Nodes: 64, Seed: 7},
		Iterations:  int64(b.N),
		WallNS:      b.Elapsed().Nanoseconds() / int64(b.N),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Metrics: map[string]obs.Metric{
			"wal_bytes_per_op": obs.Det(perOp, "bytes"),
		},
	})
}

// BenchmarkTransportLoopback drives the canonical SAI workload with every
// delivery forced through the TCP transport's loopback path
// (dial → frame → encode → decode → ack) and records the transport's
// metric registry in the manifest. The delivered-notification count must
// equal the simulated run's and gates hard; socket-level counters (dials,
// frames, bytes) depend on pooling and timing, so they gate soft.
func BenchmarkTransportLoopback(b *testing.B) {
	defer exp.SetParallelism(0)
	sc := exp.Scale{Nodes: 64, Queries: 60, Tuples: 80, Seed: 23}
	mem := startMem()
	b.ResetTimer()
	var snap map[string]float64
	notes := 0
	for i := 0; i < b.N; i++ {
		exp.SetParallelism(1)
		r := exp.Setup(engine.Config{Algorithm: engine.SAI, MaxRetries: 3, RetryBackoff: 1}, sc, workload.Params{})
		reg, cleanup := loopbackTransport(b, r.Net, r.Gen.Catalog())
		r.SubscribeT1(sc.Queries)
		r.PublishTuples(sc.Tuples)
		notes = r.Eng.NotificationCount()
		snap = reg.Snapshot()
		cleanup()
		if snap["transport.rpc_failures"] != 0 || snap["transport.decode_errors"] != 0 {
			b.Fatalf("loopback run had transport errors: %v", snap)
		}
	}
	b.StopTimer()
	allocs, bytes := mem.perOp(b.N)
	b.ReportMetric(snap["transport.dials"], "dials")
	b.ReportMetric(snap["transport.frame_bytes_out"], "frame-bytes")
	benchManifest.Add(obs.Entry{
		Name:        b.Name(),
		Scale:       scaleInfo(sc),
		Iterations:  int64(b.N),
		WallNS:      b.Elapsed().Nanoseconds() / int64(b.N),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Metrics: map[string]obs.Metric{
			"notifications":   obs.Det(float64(notes), ""),
			"dials":           obs.Noisy(snap["transport.dials"], "conns"),
			"reconnects":      obs.Noisy(snap["transport.reconnects"], "conns"),
			"retries":         obs.Noisy(snap["transport.retries"], ""),
			"frames_out":      obs.Noisy(snap["transport.frames_out"], "frames"),
			"frame_bytes_out": obs.Noisy(snap["transport.frame_bytes_out"], "bytes"),
			"frame_bytes_in":  obs.Noisy(snap["transport.frame_bytes_in"], "bytes"),
		},
	})
}

// The open-loop load benchmarks run the canonical cqload smoke
// configurations (internal/load's Default*Spec / *Config) and record
// their manifest entries under the same names cqload itself uses —
// "cqload/sim" and "cqload/tcp" — so one baseline regeneration
// (`BENCH_LABEL=baseline go test -bench . -benchtime 1x`) refreshes the
// entries the CI load-smoke job gates its cqload artifacts against.
// Entry-level fields (iterations, allocs/op) stay zero to mirror the
// entries cqload itself writes: both gates then compare the identical
// shape, and a zero-allocs CLI manifest never trips the hard
// zero-baseline rule. Each iteration is a full timed run (seconds, not
// microseconds); run them with -benchtime 1x.

func benchLoadRecord(b *testing.B, name string, res load.Result, sc obs.ScaleInfo) {
	b.Helper()
	b.ReportMetric(res.Achieved, "msgs/s")
	b.ReportMetric(res.P99, "p99-ns")
	benchManifest.Add(res.Entry(name, sc))
}

func BenchmarkLoadOpenLoopSim(b *testing.B) {
	var (
		res   load.Result
		scale obs.ScaleInfo
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tgt := load.NewSimTarget(load.DefaultSimSpec())
		r, err := load.Run(tgt, load.SimConfig())
		_ = tgt.Close()
		if err != nil {
			b.Fatal(err)
		}
		res, scale = r, tgt.ScaleInfo(int(r.Total))
	}
	b.StopTimer()
	benchLoadRecord(b, "cqload/sim", res, scale)
}

// BenchmarkLoadOpenLoopSimSkewed is the skewed counterpart of the sim
// smoke: the canonical Zipf θ=1.1 spec with hot-key sharding armed, under
// the same open-loop rate. Its "cqload/sim-skew" entry is what the CI
// load-smoke job's skew run gates against.
func BenchmarkLoadOpenLoopSimSkewed(b *testing.B) {
	var (
		res   load.Result
		scale obs.ScaleInfo
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tgt := load.NewSimTarget(load.SkewedSimSpec())
		r, err := load.Run(tgt, load.SimConfig())
		if err == nil {
			if n, herr := tgt.HotKeys(); herr == nil && n == 0 {
				err = fmt.Errorf("skewed smoke promoted no hot keys")
			}
		}
		_ = tgt.Close()
		if err != nil {
			b.Fatal(err)
		}
		res, scale = r, tgt.ScaleInfo(int(r.Total))
	}
	b.StopTimer()
	benchLoadRecord(b, "cqload/sim-skew", res, scale)
}

func BenchmarkLoadOpenLoopTCP(b *testing.B) {
	var (
		res   load.Result
		scale obs.ScaleInfo
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tgt, err := load.NewSelfHostedTCP(load.DefaultTCPSpec())
		if err != nil {
			b.Fatal(err)
		}
		r, err := load.Run(tgt, load.TCPConfig())
		_ = tgt.Close()
		if err != nil {
			b.Fatal(err)
		}
		res, scale = r, tgt.ScaleInfo(int(r.Total))
	}
	b.StopTimer()
	benchLoadRecord(b, "cqload/tcp", res, scale)
}
