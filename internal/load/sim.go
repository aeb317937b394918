package load

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"cqjoin/internal/engine"
	"cqjoin/internal/exp"
	"cqjoin/internal/obs"
	"cqjoin/internal/workload"
)

// SimSpec configures a simulator-backed load target.
type SimSpec struct {
	Scale     exp.Scale
	Algorithm engine.Algorithm
	// Theta is the Zipf exponent of the workload's attribute values; 0
	// keeps the workload default (0.9), negative draws uniformly.
	Theta float64
	// HotKeyThreshold arms adaptive hot-key sharding (SAI only); 0
	// leaves it off. HotKeyReplicas < 2 defaults to 4.
	HotKeyThreshold int
	HotKeyReplicas  int
}

// DefaultSimSpec is the canonical short sim-mode configuration shared by
// BenchmarkLoadOpenLoopSim, the committed baseline's cqload/sim entry and
// the CI load-smoke job; all three must measure the same workload for the
// benchdiff gate to mean anything.
func DefaultSimSpec() SimSpec {
	return SimSpec{
		Scale:     exp.Scale{Nodes: 64, Queries: 60, Seed: 1},
		Algorithm: engine.SAI,
	}
}

// SkewTheta is the Zipf exponent of the canonical skewed smoke runs: hot
// enough that the top-ranked value concentrates a clear hotspot, within
// the θ≈0.9–1.2 band the hot-key bench cell gates on.
const SkewTheta = 1.1

// SkewedSimSpec is the canonical skewed sim-mode smoke configuration:
// DefaultSimSpec's scale with Zipf θ=1.1 traffic and the hot-key sharding
// layer armed, so the CI skew smoke exercises promotion under open-loop
// load.
func SkewedSimSpec() SimSpec {
	spec := DefaultSimSpec()
	spec.Theta = SkewTheta
	spec.HotKeyThreshold = 16
	spec.HotKeyReplicas = 4
	return spec
}

// SimConfig is the canonical sim-mode open-loop load (see DefaultSimSpec).
// The rate sits well under the engine's single-process capacity (around
// 1800/s on a modest core), so latency quantiles measure the engine, not
// an arrival-queue backlog, and the CI rate-collapse gate has headroom on
// slower runners.
func SimConfig() Config { return Config{Rate: 1000, Duration: 2 * time.Second, Workers: 8} }

// ParseAlgorithm maps the protocol spelling of an indexing algorithm
// ("sai", "daiq", "dait", "daiv"; empty means SAI) to the engine enum,
// for CLI flags.
func ParseAlgorithm(name string) (engine.Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "sai":
		return engine.SAI, nil
	case "daiq", "dai-q":
		return engine.DAIQ, nil
	case "dait", "dai-t":
		return engine.DAIT, nil
	case "daiv", "dai-v":
		return engine.DAIV, nil
	default:
		return 0, fmt.Errorf("load: unknown algorithm %q", name)
	}
}

// SimTarget drives the in-process simulator engine. The engine's Publish
// is synchronous — notifications reach subscribers before it returns — so
// the measured latency is true end-to-end notification latency. Publish
// is not safe for uncoordinated concurrent callers (PublishBatch exists
// for that), so the target serializes publications behind a mutex: with
// an open-loop schedule the lock wait is queueing delay and lands in the
// latency samples, exactly where saturation should show up.
type SimTarget struct {
	run  *exp.Run
	spec SimSpec

	mu  sync.Mutex
	ops []engine.PublishOp
}

// NewSimTarget builds the overlay and engine for spec.
func NewSimTarget(spec SimSpec) *SimTarget {
	r := exp.Setup(engine.Config{
		Algorithm:       spec.Algorithm,
		HotKeyThreshold: spec.HotKeyThreshold,
		HotKeyReplicas:  spec.HotKeyReplicas,
	}, spec.Scale, workload.Params{Theta: spec.Theta})
	return &SimTarget{run: r, spec: spec}
}

// Prepare subscribes the spec's T1 queries and pre-draws the run's
// publication stream from the seeded workload generator.
func (t *SimTarget) Prepare(total, _ int) error {
	t.run.SubscribeT1(t.spec.Scale.Queries)
	rng := rand.New(rand.NewSource(t.spec.Scale.Seed + 101))
	t.ops = make([]engine.PublishOp, total)
	for i := range t.ops {
		t.ops[i] = engine.PublishOp{
			From: t.run.Nodes[rng.Intn(len(t.run.Nodes))],
			T:    t.run.Gen.Tuple(),
		}
	}
	t.run.ResetMeters()
	return nil
}

// Publish inserts the op-th pre-drawn tuple (serialized; see type doc).
func (t *SimTarget) Publish(_ int, op int) error {
	o := t.ops[op]
	t.mu.Lock()
	defer t.mu.Unlock()
	//lint:allow lockorder the simulator's Send is synchronous in-process delivery, and mu exists to serialize Publish
	_, err := t.run.Eng.Publish(o.From, o.T)
	return err
}

// Notifications counts deliveries since Prepare's ResetMeters.
func (t *SimTarget) Notifications() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.run.Notifications(), nil
}

// HotKeys reports how many value-level inputs the engine currently holds
// promoted — non-zero only when the spec armed hot-key sharding and the
// workload actually skewed.
func (t *SimTarget) HotKeys() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.run.Eng.HotKeys()), nil
}

// Close releases nothing: the simulator is garbage-collected state.
func (t *SimTarget) Close() error { return nil }

// ScaleInfo reports the spec's scale for manifest entries.
func (t *SimTarget) ScaleInfo(total int) obs.ScaleInfo {
	return obs.ScaleInfo{
		Nodes:   t.spec.Scale.Nodes,
		Queries: t.spec.Scale.Queries,
		Tuples:  total,
		Seed:    t.spec.Scale.Seed,
	}
}

var _ Target = (*SimTarget)(nil)
