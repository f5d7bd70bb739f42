package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// tiny is the scale of the test runs: a twentieth of each workload's
// virtual run length.
const tiny = 0.05

// scaled shrinks a workload's virtual run length by f.
func (w workload) scaled(f float64) workload {
	s := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	w.horizon, w.warmUp, w.slice = s(w.horizon), s(w.warmUp), s(w.slice)
	return w
}

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics asserts the report carries exactly the declared metrics,
// each finite and with its declared unit.
func checkMetrics(t *testing.T, what string, rep report, want map[string]string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	for name := range rep.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	e2e, layers := contract(t)
	for _, w := range workloads {
		w := w.scaled(tiny)
		t.Run(w.name, func(t *testing.T) {
			rep, notes, err := endToEnd(w, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "--trace 0", rep, e2e)
			for _, n := range notes {
				if strings.Contains(n, "VIOLATION") {
					t.Error(n)
				}
			}
			rep, notes, err = perLayer(w, 1, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "--trace 1", rep, layers)
			for _, n := range notes {
				if strings.Contains(n, "VIOLATION") {
					t.Error(n)
				}
			}
		})
	}
}

// runTiny runs a tiny ycsb-a-durable deployment, optionally perturbing
// message delivery.
func runTiny(t *testing.T, perturb sim.PerturbFunc) (*deployment, result) {
	t.Helper()
	w, err := workloadByName("ycsb-a-durable")
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy(w.scaled(tiny), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.cluster.SetPerturb(perturb)
	r, err := d.run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, r
}

// nthResponse returns a perturbation applying p to the n-th response
// the system sends the client.
func nthResponse(n int, p sim.Perturb) sim.PerturbFunc {
	seen := 0
	return func(from, to string, _ time.Duration, msg sim.Message) sim.Perturb {
		if _, ok := msg.(sysapi.MsgResponse); ok && to == "client" {
			seen++
			if seen == n {
				return p
			}
		}
		return sim.Perturb{}
	}
}

func TestGateAcceptsCleanRun(t *testing.T) {
	_, r := runTiny(t, nil)
	if v := r.gate.violations(1000); len(v) > 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
}

func TestGateCatchesDroppedResponse(t *testing.T) {
	_, r := runTiny(t, nthResponse(100, sim.Perturb{Drop: true}))
	v := r.gate.violations(1000)
	if len(v) == 0 || !strings.Contains(strings.Join(v, "; "), "got no response") {
		t.Fatalf("dropped response not flagged: %v", v)
	}
	if r.gate.failed() != 1 {
		t.Fatalf("failed = %d, want 1", r.gate.failed())
	}
}

func TestGateCatchesDuplicateResponse(t *testing.T) {
	_, r := runTiny(t, nthResponse(100, sim.Perturb{Duplicate: true, DupDelay: time.Millisecond}))
	v := r.gate.violations(1000)
	if len(v) == 0 || !strings.Contains(strings.Join(v, "; "), "more than one response") {
		t.Fatalf("duplicate response not flagged: %v", v)
	}
}

func TestGateCatchesPerturbedState(t *testing.T) {
	_, clean := runTiny(t, nil)
	d, r := runTiny(t, nil)
	if diff := sameVirtual(clean, r); diff != "" {
		t.Fatalf("same-seed runs differ: %s", diff)
	}

	// A payload change keeps the balances: only the digest shows it.
	key := d.sys.Keys("Account")[7]
	st, _ := d.sys.EntityState("Account", key)
	st["payload"] = interp.StrV("tampered")
	d.sys.Preload(interp.EntityRef{Class: "Account", Key: key}, st)
	r.gate = d.gateInput()
	r.digest = r.gate.digest
	if diff := sameVirtual(clean, r); !strings.Contains(diff, "digest") {
		t.Fatalf("perturbed digest not flagged: %q", diff)
	}

	// A balance change breaks conservation.
	st["balance"] = interp.IntV(st["balance"].I + 1)
	d.sys.Preload(interp.EntityRef{Class: "Account", Key: key}, st)
	if v := d.gateInput().violations(1000); len(v) == 0 {
		t.Fatal("non-conserved balance not flagged")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"statefulentities.dev/stateflow/internal/systems/stateflow.(*Coordinator).writeCheckpoint": "systems/stateflow",
		"statefulentities.dev/stateflow/internal/txn/aria.Fallback":                                "txn/aria",
		"statefulentities.dev/stateflow/internal/state.(*Store).Encode":                            "state",
		"statefulentities.dev/stateflow/internal/sim.(*Cluster).RunUntil.func1":                    "sim",
		"statefulentities.dev/stateflow/internal/systems/sysapi.(*Generator).OnMessage":            "other",
		"runtime.mallocgc":         "",
		"main.(*client).OnMessage": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
