package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cqjoin/internal/relation"
)

// toyScale runs every workload in well under a second per phase.
var toyScale = scale{
	libNodes: 16, libQueries: 10, libStream: 200, libRate: 2000,
	tcpNodes: 16, tcpQueries: 8, tcpStream: 300, tcpProducts: 40, tcpRate: 2000,
	churnNodes: 16, churnQueries: 8, churnStream: 300, churnProds: 40, churnRate: 1000, churnShare: 0.05,
}

var workloadNames = []string{"lib-sai", "tcp-overlay", "durable-churn"}

func toyWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := newWorkload(name, 3, t.TempDir(), toyScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestToyRepetitions runs an untraced and a traced repetition of each
// workload and requires clean checks and every reported metric.
func TestToyRepetitions(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := toyWorkload(t, name)
			var reps []*rep
			for _, traced := range []bool{false, true} {
				r, err := runRep(w, traced)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed > 0 || r.unexplained || r.notifs.reference == 0 {
					t.Fatalf("traced=%v: failed=%d unexplained=%v notifications %+v (%v)",
						traced, r.failed, r.unexplained, r.notifs, r.firstErr)
				}
				reps = append(reps, r)
			}
			for _, traced := range []bool{false, true} {
				res := summarize(name, reps, traced)
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) || !res.Correct {
					t.Fatalf("traced=%v: correct=%v, %d metrics, want %d", traced, res.Correct, len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m := res.Metrics[d.name]; !finite(m.Value) || (!traced && m.Value <= 0) {
						t.Errorf("traced=%v: %s = %v", traced, d.name, m.Value)
					}
				}
			}
		})
	}
}

// TestComparerReportsPlanted drops one collected notification and adds
// one that no reference pair produces, and requires the check to report
// exactly one missing and one unexpected notification.
func TestComparerReportsPlanted(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := toyWorkload(t, name)
			in, err := w.setup(false)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			in.replay(w.rate())
			switch in := in.(type) {
			case *libInst:
				plantLib(t, in)
			case *daemonInst:
				plantDaemon(t, in)
			}
			got, explained := in.check()
			if got.missing != 1 || got.unexpected != 1 || explained {
				t.Fatalf("check = %+v explained=%v, want 1 missing and 1 unexpected, unexplained", got, explained)
			}
		})
	}
}

// plantLib removes a notification whose content was delivered once and
// adds a copy of another carrying a value no tuple has.
func plantLib(t *testing.T, in *libInst) {
	count := make(map[string]int)
	for _, n := range in.got {
		count[n.ContentKey()]++
	}
	for i, n := range in.got {
		if count[n.ContentKey()] == 1 {
			in.got = append(in.got[:i], in.got[i+1:]...)
			fake := in.got[0]
			fake.Values = append([]relation.Value(nil), fake.Values...)
			fake.Values[0] = relation.N(-1)
			in.got = append(in.got, fake)
			return
		}
	}
	t.Fatal("no notification with a unique content to drop")
}

// plantDaemon removes one received notification and adds one for a pair
// of publications that never joined.
func plantDaemon(t *testing.T, in *daemonInst) {
	for _, c := range in.conns {
		for k := range c.got {
			c.got[k]--
			c.got[daemonContent("no-such-query", 1, 2)]++
			return
		}
	}
	t.Fatal("no notification received")
}

// TestBenchmarkJSON checks BENCHMARK.json against the workloads and the
// metric tables the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		listed []entry
		defs   []metricDef
	}{{doc.EndToEnd, endToEndMetrics}, {doc.PerLayer, perLayerMetrics}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.defs))
		}
		for i, d := range c.defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if e := c.listed[i]; e.Name != d.name || e.Unit != d.unit || e.Better != better {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the benchmark reports %+v", i, e, d)
			}
		}
	}
}
