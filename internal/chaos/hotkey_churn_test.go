package chaos

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/sim"
)

// Hot-key sharding under protocol churn: a skewed workload promotes a
// value-level input to a replica group while nodes join, leave, crash and
// rejoin through the maintenance protocol. The promoted epoch state — the
// shard registry, the scattered rewrite copies, the relayed tuples — must
// survive the churn: after calming and healing, the run must lose and
// duplicate nothing and reproduce the never-churned fingerprint, at any
// worker count.

// runHotKeyChurn mirrors runProtocolChurn with two changes: the engine
// runs with hot-key sharding armed, and the workload is skewed — half of
// all draws pin the join attribute (R.B / S.E) to the hot value 7, so one
// value-level input per side concentrates enough traffic to cross the
// promotion threshold mid-run. The window is effectively infinite so the
// promotion decision is a pure function of the per-input bump count,
// independent of the delivery reordering churn introduces.
func runHotKeyChurn(t *testing.T, seed int64, batches, workers int, churn bool) (chaosResult, []engine.HotKeyState) {
	t.Helper()
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)

	net := chord.New(chord.Config{})
	net.AddNodes("peer", 48)
	eng := engine.New(net, catalog, engine.Config{
		Algorithm:       engine.SAI,
		Seed:            seed,
		MaxRetries:      6,
		RetryBackoff:    1,
		HotKeyThreshold: 8,
		HotKeyReplicas:  4,
		HotKeyWindow:    1 << 20,
	})
	eng.KeepNotifications()
	var in *Injector
	if churn {
		faults := protocolFaults()
		faults.Seed = seed
		in = New(eng, faults)
	}
	oracle := engine.NewOracle()
	wl := sim.NewSource(seed + 1)

	base := net.Nodes()
	for qi, qs := range chaosQueries {
		q, err := eng.Subscribe(base[(qi*7)%len(base)], query.MustParse(catalog, qs))
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		oracle.AddQuery(q)
	}
	// Skewed join-attribute draw: value 7 on half the draws, a uniform
	// cold value otherwise.
	joinVal := func() float64 {
		if wl.Intn(2) == 0 {
			return 7
		}
		return float64(wl.Intn(3))
	}
	for b := 0; b < batches; b++ {
		const batchLen = 4
		stamp := net.Clock().Now()
		ops := make([]engine.PublishOp, 0, batchLen)
		for i := 0; i < batchLen; i++ {
			var tu *relation.Tuple
			if wl.Intn(2) == 0 {
				tu = relation.MustTuple(r,
					relation.N(float64(wl.Intn(5))), relation.N(joinVal()), relation.N(float64(wl.Intn(3))))
			} else {
				tu = relation.MustTuple(s,
					relation.N(float64(wl.Intn(5))), relation.N(joinVal()), relation.N(float64(wl.Intn(3))))
			}
			nodes := net.Nodes()
			ops = append(ops, engine.PublishOp{From: nodes[wl.Intn(len(nodes))], T: tu})
			oracle.AddTuple(tu.WithPubT(stamp + int64(i) + 1))
		}
		if err := eng.PublishBatch(ops, workers); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if in != nil {
			in.Step()
		}
	}
	var trace []string
	if in != nil {
		in.Calm()
		if rounds, err := in.HealAll(80); err != nil {
			t.Fatalf("overlay did not converge after %d rounds: %v", rounds, err)
		}
		trace = in.Trace()
	}
	return chaosResult{trace: trace, notifs: eng.Notifications(), oracle: oracle, net: net}, eng.HotKeys()
}

// TestHotKeyChurnConvergence: with a key promoted mid-run, a
// protocol-churned run at parallelism 1 and 8 must agree with each other
// bit-for-bit (same fault trace, same delivery multiset, same hot-key
// registry), converge to a Zave-invariant ring, lose and duplicate
// nothing, and reproduce the never-churned run's content fingerprint.
func TestHotKeyChurnConvergence(t *testing.T) {
	seed := chaosSeed(t, 31)
	batches := 40
	if testing.Short() {
		batches = 20
	}
	calm, calmHot := runHotKeyChurn(t, seed, batches, 8, false)
	seq, seqHot := runHotKeyChurn(t, seed, batches, 1, true)
	par, parHot := runHotKeyChurn(t, seed, batches, 8, true)

	// Non-vacuity: the skew must actually promote the hot value, with and
	// without churn, and churn must not disturb the final registry.
	for name, hot := range map[string][]engine.HotKeyState{"calm": calmHot, "w1": seqHot, "w8": parHot} {
		promoted := false
		for _, h := range hot {
			if strings.HasSuffix(h.Input, "+7") && h.Replicas == 4 {
				promoted = true
			}
		}
		if !promoted {
			t.Fatalf("%s: skewed stream never promoted the hot value: %v", name, hot)
		}
	}
	if !reflect.DeepEqual(seqHot, parHot) {
		t.Fatalf("hot-key registries diverge across parallelism:\n w1=%v\n w8=%v", seqHot, parHot)
	}

	// Worker count must not change the churned run: same fault-event
	// multiset, same delivery multiset.
	sortedTrace := func(trace []string) []string {
		out := append([]string(nil), trace...)
		sort.Strings(out)
		return out
	}
	ts, tp := sortedTrace(seq.trace), sortedTrace(par.trace)
	if len(ts) != len(tp) {
		t.Fatalf("trace lengths differ across parallelism: %d vs %d", len(ts), len(tp))
	}
	for i := range ts {
		if ts[i] != tp[i] {
			t.Fatalf("fault-event multisets diverge at %d:\n  w1: %s\n  w8: %s", i, ts[i], tp[i])
		}
	}
	ids := func(ns []engine.Notification) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = deliveryIdentity(n)
		}
		sort.Strings(out)
		return out
	}
	is, ip := ids(seq.notifs), ids(par.notifs)
	if len(is) != len(ip) {
		t.Fatalf("notification counts differ across parallelism: %d vs %d", len(is), len(ip))
	}
	for i := range is {
		if is[i] != ip[i] {
			t.Fatalf("delivery sets diverge at %d: %s vs %s", i, is[i], ip[i])
		}
	}

	for name, res := range map[string]chaosResult{"w1": seq, "w8": par} {
		if rep := chord.CheckRing(res.net); !rep.Converged() {
			t.Errorf("%s: %s", name, rep)
		}
		if err := RingIntact(res.net); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := NoDuplicateDeliveries(res.notifs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := Complete(res.oracle, res.notifs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got, want := contentFingerprint(res.notifs), contentFingerprint(calm.notifs); got != want {
			t.Errorf("%s: content fingerprint diverges from never-churned run (%d vs %d distinct keys)",
				name, len(strings.Split(got, "\n")), len(strings.Split(want, "\n")))
		}
	}

	// The schedule must actually have churned while the key was hot.
	for _, marker := range []string{"join chaos-join-", "leave ", "crash ", "rejoin "} {
		if !traceHas(par.trace, marker) {
			t.Errorf("schedule never produced a %q event: test is vacuous", strings.TrimSpace(marker))
		}
	}
}
