// Differential determinism test for the parallel execution tiers
// (DESIGN.md §8): a run's observable results must be bit-identical at any
// worker count. Every algorithm is driven through the batched publish
// pipeline at parallelism 1 and 8 — on a calm network and under keyed
// fault injection — and the complete deterministic fingerprint (per-kind
// traffic, fault counters, load vectors, delivered matches) is compared.
package cqjoin_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cqjoin/internal/chaos"
	"cqjoin/internal/engine"
	"cqjoin/internal/exp"
	"cqjoin/internal/workload"
)

// runFingerprint captures every deterministic observable of a run. Trace
// and timing-level observables (delivery interleavings, ip-learning
// events) are deliberately excluded: they are scheduling-dependent by
// nature, and no figure or manifest metric reads them.
type runFingerprint struct {
	Msgs, Hops           map[string]int64
	Bytes                int64
	Drops, Dups, Delayed int64
	Retries, Lost        int64
	TF, TS               []int64
	Notes                []string
}

// parallelScenario publishes sc.Tuples tuples through the batch pipeline
// in 8 sub-batches (with a chaos Step between each when faults are on)
// and returns the run's fingerprint.
func parallelScenario(alg engine.Algorithm, sc exp.Scale, withChaos bool, workers int) runFingerprint {
	exp.SetParallelism(workers)
	r := exp.Setup(engine.Config{Algorithm: alg, MaxRetries: 3, RetryBackoff: 1}, sc, workload.Params{})
	r.Eng.KeepNotifications()
	var in *chaos.Injector
	if withChaos {
		// Crash and stale-IP schedules are omitted on purpose: which node
		// a Step picks is deterministic, but ip-learning under concurrent
		// notify deliveries is not, and those paths are already covered by
		// the sequential chaos invariant tests.
		in = chaos.New(r.Eng, chaos.Config{
			Seed:       sc.Seed,
			DropRate:   0.03,
			DupRate:    0.03,
			DelayRate:  0.05,
			MaxDelay:   4,
			KeyedDraws: true,
		})
	}
	r.SubscribeT1(sc.Queries)
	r.ResetMeters()
	batches := 8
	per := sc.Tuples / batches
	if per == 0 {
		per = 1
	}
	for b := 0; b < batches; b++ {
		r.PublishTuples(per)
		if in != nil {
			in.Step()
		}
	}
	if in != nil {
		in.Calm()
	}

	tr := r.Net.Traffic()
	fp := runFingerprint{
		Bytes:   tr.TotalBytes(),
		Retries: tr.TotalRetries(),
		Lost:    tr.TotalLost(),
		TF:      r.Eng.FilteringLoads(),
		TS:      r.Eng.StorageLoads(),
	}
	fp.Msgs, fp.Hops = tr.Snapshot()
	for kind := range fp.Msgs {
		fp.Drops += tr.Drops(kind)
		fp.Dups += tr.Duplicates(kind)
		fp.Delayed += tr.Delayed(kind)
	}
	for _, n := range r.Eng.Notifications() {
		fp.Notes = append(fp.Notes, fmt.Sprintf("%s|%d|%d", n.ContentKey(), n.LeftPubT, n.RightPubT))
	}
	sort.Strings(fp.Notes)
	return fp
}

// TestParallelDeterminism is the acceptance gate for the tentpole: for all
// four algorithms, with and without keyed fault injection, a parallel run
// must produce exactly the sequential run's results.
func TestParallelDeterminism(t *testing.T) {
	defer exp.SetParallelism(0)
	sc := exp.Scale{Nodes: 96, Queries: 120, Tuples: 160, Seed: 42}
	if testing.Short() {
		sc = exp.Scale{Nodes: 64, Queries: 60, Tuples: 80, Seed: 42}
	}
	for _, alg := range []engine.Algorithm{engine.SAI, engine.DAIQ, engine.DAIT, engine.DAIV} {
		for _, withChaos := range []bool{false, true} {
			name := fmt.Sprintf("%s/chaos=%v", alg, withChaos)
			t.Run(name, func(t *testing.T) {
				seq := parallelScenario(alg, sc, withChaos, 1)
				par := parallelScenario(alg, sc, withChaos, 8)
				if len(seq.Notes) == 0 {
					t.Fatalf("scenario delivered no notifications; it exercises nothing")
				}
				if !reflect.DeepEqual(seq.Msgs, par.Msgs) {
					t.Errorf("per-kind message counts diverge:\n seq=%v\n par=%v", seq.Msgs, par.Msgs)
				}
				if !reflect.DeepEqual(seq.Hops, par.Hops) {
					t.Errorf("per-kind hop counts diverge:\n seq=%v\n par=%v", seq.Hops, par.Hops)
				}
				if seq.Bytes != par.Bytes {
					t.Errorf("wire bytes diverge: seq=%d par=%d", seq.Bytes, par.Bytes)
				}
				if seq.Drops != par.Drops || seq.Dups != par.Dups || seq.Delayed != par.Delayed {
					t.Errorf("fault counters diverge: seq=(%d,%d,%d) par=(%d,%d,%d)",
						seq.Drops, seq.Dups, seq.Delayed, par.Drops, par.Dups, par.Delayed)
				}
				if seq.Retries != par.Retries || seq.Lost != par.Lost {
					t.Errorf("retry/lost counters diverge: seq=(%d,%d) par=(%d,%d)",
						seq.Retries, seq.Lost, par.Retries, par.Lost)
				}
				if !reflect.DeepEqual(seq.TF, par.TF) {
					t.Errorf("filtering-load vector diverges")
				}
				if !reflect.DeepEqual(seq.TS, par.TS) {
					t.Errorf("storage-load vector diverges")
				}
				if !reflect.DeepEqual(seq.Notes, par.Notes) {
					t.Errorf("notification sets diverge: seq=%d notes, par=%d notes", len(seq.Notes), len(par.Notes))
				}
			})
		}
	}
}
