package main

import (
	"encoding/json"
	"os"
	"testing"

	"parallaft/internal/checkd"
	"parallaft/internal/packet"
)

// tinyScale shrinks every guest so a pass of each workload takes well under
// a second.
const tinyScale = 0.05

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func sameMetrics(t *testing.T, kind string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s in %q, declared %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
}

// One tiny traced pass of every workload emits every declared metric with
// its unit, and every operation passes.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, options{seed: defaultSeed, traced: true, scale: tinyScale, minPasses: 1})
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.ops == 0 {
				t.Fatalf("%d of %d ops failed: %s", r.failed, r.ops, r.firstErr)
			}
			sameMetrics(t, "end_to_end", endToEnd(r), d.EndToEnd)
			sameMetrics(t, "per_layer", perLayer(r), d.PerLayer)
			if len(r.spans) == 0 || len(r.cpuByPkg) == 0 {
				t.Errorf("traced run kept %d spans and %d profiled packages", len(r.spans), len(r.cpuByPkg))
			}
		})
	}
}

// A digest that does not match shows up as failed operations.
func TestTamperedDigestFails(t *testing.T) {
	w := lookup("fault-campaign")
	r, err := measure(w, options{seed: defaultSeed, scale: tinyScale, minPasses: 1, want: &digests{Books: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.failed != r.ops {
		t.Fatalf("tampered digest: %d of %d ops failed, want all", r.failed, r.ops)
	}
}

// At the default seed and benchmark scale every workload reproduces its
// pinned digests: the simulated books, the packet bytes and the campaign
// report have not moved.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at benchmark scale")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want := pinned[w.name]
			r, err := measure(w, options{seed: defaultSeed, scale: 1, minPasses: 1, want: &want})
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d ops failed: %s", r.failed, r.ops, r.firstErr)
			}
		})
	}
}

// Every packet needs exactly one passing verdict, in submission order.
func TestJudgeFailsBadVerdicts(t *testing.T) {
	pkts := []*packet.CheckPacket{{ProgName: "p", Segment: 0}, {ProgName: "p", Segment: 1}}
	ok := func(seq int) checkd.Verdict { return checkd.Verdict{Seq: seq, ProgName: "p", Segment: seq, OK: true} }
	diverged, infra := ok(1), ok(1)
	diverged.OK = false
	infra.Infra = "checkfarm: no live nodes"
	for _, c := range []struct {
		name   string
		vs     []checkd.Verdict
		failed int
	}{
		{"clean", []checkd.Verdict{ok(0), ok(1)}, 0},
		{"missing", []checkd.Verdict{ok(0)}, 2},
		{"duplicated", []checkd.Verdict{ok(0), ok(0), ok(1)}, 2},
		{"out of order", []checkd.Verdict{ok(1), ok(0)}, 2},
		{"diverged", []checkd.Verdict{ok(0), diverged}, 1},
		{"infra", []checkd.Verdict{ok(0), infra}, 1},
	} {
		var p pass
		p.judge(c.vs, pkts)
		if p.failed != c.failed {
			t.Errorf("%s: %d failed, want %d", c.name, p.failed, c.failed)
		}
	}
}
