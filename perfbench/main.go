// Command perfbench is the cqjoin benchmark. It replays a seeded,
// pre-drawn stream of fixed size against one of three workloads, checks
// every delivered notification against a reference join, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of its standard output. NOTES.md explains the workloads and
// metrics.
//
//	go run . -workload lib-sai -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one named benchmark workload: a seeded stream and the
// system it runs against.
type workload interface {
	// setup builds a fresh system and subscribes the initial queries.
	setup(traced bool) (instance, error)
	// rate is the fixed offered rate of the latency phase, in ops/s.
	rate() float64
	// describe states the stream and the system's configuration.
	describe() string
}

// instance is one freshly set-up system under test.
type instance interface {
	// replay drives the whole stream through the open-loop generator.
	replay(rate float64) *phase
	// isPub reports whether stream op i is a publication.
	isPub(i int) bool
	// notifyMS returns the notification latencies of the last replay.
	notifyMS() []float64
	// check compares the last replay's notifications with the reference
	// join, then drops them. A missing notification the workload's known
	// defect explains is counted but marked explained.
	check() (t tally, explained bool)
	// layers adds the traced per-layer metrics of the last replay.
	layers(p *phase, m map[string]float64) error
	// recover measures how long a fresh daemon takes to open the state
	// directory holding this instance's state, replay it and serve.
	recover() (secs float64, replayed int, err error)
	close() error
}

// rep is the outcome of one repetition: a latency phase at the fixed
// rate and saturatingPhases saturating ones, each on a freshly set-up
// system.
type rep struct {
	traced            bool
	setup             []float64
	knees             []float64 // one per saturating phase
	ack, notify       []float64 // latency phase samples, ms
	cpu               time.Duration
	pubs              int // publications over both phases
	cpuPerPub, heapMB float64
	recoverS          []float64 // one per phase
	attempted, failed int
	notifs            tally
	unexplained       bool
	layers            map[string]float64
	firstErr          error
}

// runRep runs one repetition of w.
func runRep(w workload, traced bool) (*rep, error) {
	r := &rep{traced: traced, layers: make(map[string]float64)}
	rates := []float64{w.rate()}
	for i := 0; i < saturatingPhases; i++ {
		rates = append(rates, 0)
	}
	for _, rate := range rates {
		baseHeap := heapAfterGC()
		t0 := time.Now()
		in, err := w.setup(traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		err = r.measure(in, rate, baseHeap)
		if cerr := in.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// measure replays the stream through in at rate (0 saturates) and
// records the phase's metrics.
func (r *rep) measure(in instance, rate float64, baseHeap uint64) error {
	p := in.replay(rate)
	r.attempted += p.n
	r.failed += p.failed
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
	pubs := 0
	for i := 0; i < p.n; i++ {
		if in.isPub(i) {
			pubs++
		}
	}
	r.cpu += p.cpu
	r.pubs += pubs
	r.cpuPerPub = ms(r.cpu) / float64(r.pubs)
	if rate > 0 {
		r.ack, r.notify = msOf(p.ack, in.isPub), in.notifyMS()
	} else {
		r.knees = append(r.knees, float64(pubs)/p.elapsed.Seconds())
	}
	if r.traced && rate > 0 {
		if err := in.layers(p, r.layers); err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		r.layers["go.allocs_per_pub"] = float64(p.mallocs) / float64(pubs)
		r.layers["go.alloc_bytes_per_pub"] = float64(p.allocBytes) / float64(pubs)
		r.layers["go.gc_cycles"] = float64(p.gcCycles)
		r.layers["load.late_p99_ms"] = quantile(msOf(p.late, nil), 0.99)
		r.layers["load.backlog_max"] = float64(p.backlogMax)
	}
	t, explained := in.check()
	r.notifs.add(t)
	if t.missing+t.unexpected > 0 && !explained {
		r.unexplained = true
	}
	if rate > 0 {
		// The heap is read after check dropped the collected
		// notifications, so what is left above the pre-set-up baseline is
		// the system's.
		r.heapMB = (float64(heapAfterGC()) - float64(baseHeap)) / (1 << 20)
	}
	secs, replayed, err := in.recover()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.recoverS = append(r.recoverS, secs)
	if rate > 0 {
		r.layers["durable.recover_replayed"] = float64(replayed)
	}
	return nil
}

// warmUp makes one saturating replay on a fresh system and discards it.
func warmUp(w workload) error {
	in, err := w.setup(false)
	if err != nil {
		return err
	}
	in.replay(0)
	in.check()
	return in.close()
}

// heapAfterGC is the live heap. The second GC frees what sync.Pool
// victim caches still held after the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: lib-sai, tcp-overlay or durable-churn")
	seed := flag.Int64("seed", 1, "seed of the pre-drawn stream")
	seconds := flag.Int("seconds", 20, "how long to measure; repetitions run until it is spent")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	workdir := flag.String("workdir", ".bench_build/work", "directory for state directories and the daemon log")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// saturatingPhases is how many saturating replays a repetition makes. The
// knee is the noisiest figure on a shared host, so it gets more samples.
const saturatingPhases = 2

// programSeed seeds the system under test (SAI's random index-attribute
// choice, for one). It stays fixed: -seed varies only the inputs the
// benchmark generates, so two seeds run the same program on different
// streams.
const programSeed = 1

// minSetups is how many set-ups a run times at least.
const minSetups = 15

func run(name string, seed int64, seconds int, traced bool, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(workdir, "daemon.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	log.SetOutput(logf)

	w, err := newWorkload(name, seed, workdir, defaultScale)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", name, seed, seconds, traced)
	fmt.Printf("machine gomaxprocs=%d numcpu=%d go=%s %s/%s state_fs=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(workdir))
	fmt.Printf("stream %s\n", w.describe())

	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	// One unrecorded saturating replay first, so caches fill, the heap
	// reaches its working size and lazy set-up is done before anything
	// is timed.
	if err := warmUp(w); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var reps []*rep
	var longest time.Duration
	for {
		// A traced run alternates untraced and traced repetitions, so the
		// difference between the two is the tracing overhead.
		tracedRep := traced && len(reps)%2 == 1
		t0 := time.Now()
		r, err := runRep(w, tracedRep)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", len(reps)+1, err)
		}
		reps = append(reps, r)
		fmt.Printf("rep %d traced=%v setup_s=%.4f knee=%.1f ack_ms=%.3f/%.3f notify_ms=%.3f/%.3f cpu_ms=%.4f heap_mb=%.2f recover_s=%.3f\n",
			len(reps), r.traced, median(r.setup), median(r.knees), quantile(r.ack, 0.5), quantile(r.ack, 0.99),
			quantile(r.notify, 0.5), quantile(r.notify, 0.99), r.cpuPerPub, r.heapMB, median(r.recoverS))
		if d := time.Since(t0); d > longest {
			longest = d
		}
		need := 1
		if traced {
			need = 2
		}
		if len(reps) >= need && time.Now().Add(longest).After(deadline) {
			break
		}
	}
	// Set-up takes milliseconds, so time a few more set-ups than the
	// repetitions made and report the median.
	for len(reps[0].setup) < minSetups {
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(false)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		reps[0].setup = append(reps[0].setup, time.Since(t0).Seconds())
		if err := in.close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
	}
	res := summarize(name, reps, traced)
	for k, m := range res.Metrics {
		if !finite(m.Value) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// endToEnd aggregates the repetitions' end-to-end metrics. Latency
// quantiles are exact over the raw samples of every repetition's latency
// phase; set-up, knee and recovery are medians over every set-up,
// saturating phase and recovery timed; CPU and heap are medians over
// repetitions. The counts say how many samples each figure rests on.
func endToEnd(reps []*rep) (map[string]metric, map[string]int) {
	var setup, knee, cpu, heap, rec, ack, notify []float64
	for _, r := range reps {
		setup = append(setup, r.setup...)
		knee = append(knee, r.knees...)
		cpu = append(cpu, r.cpuPerPub)
		heap = append(heap, r.heapMB)
		rec = append(rec, r.recoverS...)
		ack = append(ack, r.ack...)
		notify = append(notify, r.notify...)
	}
	m := map[string]metric{
		"setup_s":         {median(setup), "s"},
		"knee_pubs_per_s": {median(knee), "1/s"},
		"ack_p50_ms":      {quantile(ack, 0.5), "ms"},
		"ack_p99_ms":      {quantile(ack, 0.99), "ms"},
		"notify_p50_ms":   {quantile(notify, 0.5), "ms"},
		"notify_p99_ms":   {quantile(notify, 0.99), "ms"},
		"cpu_ms_per_pub":  {median(cpu), "ms"},
		"live_heap_mb":    {median(heap), "MB"},
		"recover_s":       {median(rec), "s"},
	}
	n := map[string]int{
		"setup_s": len(setup), "ack_p50_ms": len(ack), "ack_p99_ms": len(ack),
		"notify_p50_ms": len(notify), "notify_p99_ms": len(notify),
		"knee_pubs_per_s": len(knee), "recover_s": len(rec),
		"cpu_ms_per_pub": len(reps), "live_heap_mb": len(reps),
	}
	return m, n
}

// summarize prints the human-readable report and builds the result line.
func summarize(name string, reps []*rep, traced bool) result {
	var plain, tr []*rep
	res := result{Correct: true, Metrics: make(map[string]metric)}
	var notifs tally
	for _, r := range reps {
		if r.traced {
			tr = append(tr, r)
		} else {
			plain = append(plain, r)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		notifs.add(r.notifs)
		if r.unexplained || r.failed > 0 || r.notifs.reference == 0 {
			res.Correct = false
		}
		if r.firstErr != nil {
			fmt.Printf("error first failed op: %v\n", r.firstErr)
		}
	}
	e2e, counts := endToEnd(plain)
	var names []string
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-16s %14.4f %-4s n=%d\n", k, e2e[k].Value, e2e[k].Unit, counts[k])
	}
	fmt.Printf("metric %-16s %14.6f %-4s failed=%d attempted=%d\n", "pub_error_frac",
		per(float64(res.Failed), float64(res.Attempted)), "frac", res.Failed, res.Attempted)
	fmt.Printf("metric %-16s %14.6f %-4s missing=%d unexpected=%d reference=%d delivered=%d\n", "notify_error_frac",
		notifs.errorFrac(), "frac", notifs.missing, notifs.unexpected, notifs.reference, notifs.delivered)
	fmt.Printf("repetitions %d\n", len(plain))
	for _, ex := range notifs.examples {
		fmt.Printf("check %s\n", ex)
	}
	if notifs.missing+notifs.unexpected > 0 {
		fmt.Printf("check %s: notifications differ from the reference join (see NOTES.md, known defects)\n", name)
	}
	defs, values := endToEndMetrics, map[string]float64{}
	for k, m := range e2e {
		values[k] = m.Value
	}
	if traced {
		defs, values = perLayerMetrics, layerValues(plain, tr, e2e)
		values["check.notify_error_frac"] = notifs.errorFrac()
		values["check.pub_error_frac"] = per(float64(res.Failed), float64(res.Attempted))
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
		if traced {
			fmt.Printf("layer %-36s %14.4f %s\n", d.name, values[d.name], d.unit)
		}
	}
	return res
}

// layerValues aggregates the traced repetitions' per-layer metrics as
// medians, adds the p99 latencies of the untraced ones, and the tracing
// overhead: how much worse the traced repetitions' end-to-end metrics
// are than the untraced ones', in percent.
func layerValues(plain, traced []*rep, e2e map[string]metric) map[string]float64 {
	layers := make(map[string][]float64)
	for _, r := range traced {
		for k, v := range r.layers {
			layers[k] = append(layers[k], v)
		}
	}
	out := make(map[string]float64)
	for k, vs := range layers {
		out[k] = median(vs)
	}
	out["tail.ack_p99_ms"] = e2e["ack_p99_ms"].Value
	out["tail.notify_p99_ms"] = e2e["notify_p99_ms"].Value
	t, _ := endToEnd(traced)
	out["trace.overhead_knee_pct"] = 100 * (e2e["knee_pubs_per_s"].Value/t["knee_pubs_per_s"].Value - 1)
	out["trace.overhead_ack_p50_pct"] = 100 * (t["ack_p50_ms"].Value/e2e["ack_p50_ms"].Value - 1)
	out["trace.overhead_cpu_pct"] = 100 * (t["cpu_ms_per_pub"].Value/e2e["cpu_ms_per_pub"].Value - 1)
	return out
}

func msOf(ds []time.Duration, keep func(i int) bool) []float64 {
	out := make([]float64, 0, len(ds))
	for i, d := range ds {
		if keep == nil || keep(i) {
			out = append(out, ms(d))
		}
	}
	return out
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// scale sizes the three workloads. The stream length is part of each
// workload's definition: without a window, per-publication work grows
// with the state earlier publications left behind.
type scale struct {
	libNodes, libQueries, libStream                   int
	libRate                                           float64
	tcpNodes, tcpQueries, tcpStream, tcpProducts      int
	tcpRate                                           float64
	churnNodes, churnQueries, churnStream, churnProds int
	churnRate, churnShare                             float64
}

var defaultScale = scale{
	libNodes: 128, libQueries: 100, libStream: 2000, libRate: 400,
	tcpNodes: 64, tcpQueries: 40, tcpStream: 4000, tcpProducts: 1000, tcpRate: 1000,
	churnNodes: 64, churnQueries: 40, churnStream: 3000, churnProds: 500, churnRate: 500, churnShare: 0.05,
}

func newWorkload(name string, seed int64, workdir string, sc scale) (workload, error) {
	switch name {
	case "lib-sai":
		return newLibSAI(sc.libNodes, sc.libQueries, sc.libStream, sc.libRate, seed, workdir), nil
	case "tcp-overlay":
		return newDaemonWL(2, sc.tcpNodes, sc.tcpQueries, sc.tcpStream, sc.tcpProducts, 0, sc.tcpRate, seed, workdir), nil
	case "durable-churn":
		return newDaemonWL(1, sc.churnNodes, sc.churnQueries, sc.churnStream, sc.churnProds, sc.churnShare, sc.churnRate, seed, workdir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want lib-sai, tcp-overlay or durable-churn)", name)
}
