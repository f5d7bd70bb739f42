// Command perfbench is the repository's benchmark. It deploys the
// compiled YCSB entity program on the simulated StateFlow runtime, drives
// one named open-loop workload, checks the outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload ycsb-a-durable --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it repeats the workload on fresh deployments for
// --seconds of wall time and reports the end-to-end metrics (medians over
// the repetitions for the real-time ones). With --trace 1 it runs the
// workload once untraced and once with the tracer and the CPU profile on,
// replays each layer's public entry points on the workload's own inputs,
// reports the per-layer metrics and writes a Chrome trace-event file to
// .bench_build/trace-<workload>-<seed>.json.
//
// Run it through run.sh, which builds it from the checkout first. See
// METRICS.md for what each metric means and which one it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: ycsb-a-durable, xfer-burst or xshard-m")
	seed := flag.Int64("seed", 1, "seed of the cluster and the workload generator")
	seconds := flag.Int("seconds", 15, "wall seconds to keep repeating the workload (--trace 0)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	var rep report
	var notes []string
	switch *trace {
	case 0:
		rep, notes, err = endToEnd(w, *seed, time.Duration(*seconds)*time.Second)
	case 1:
		out := fmt.Sprintf(".bench_build/trace-%s-%d.json", w.name, *seed)
		rep, notes, err = perLayer(w, *seed, out)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fatal(err)
	}
	printReport(w, rep, notes)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// printReport prints a human-readable table, then the JSON result line.
func printReport(w workload, rep report, notes []string) {
	fmt.Printf("workload %s\n", w.name)
	for _, n := range notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
}

// endToEnd repeats the workload on fresh same-seed deployments until the
// wall budget is spent (at least minRounds times), checks every run, and
// reports the end-to-end metrics. Virtual-time metrics are identical
// across the repetitions (the gate checks it); real-time ones are
// medians over them.
func endToEnd(w workload, seed int64, budget time.Duration) (report, []string, error) {
	const minRounds, setupSamples = 2, 25
	start := time.Now()
	// Set-up alone, from a collected heap each time, before any run has
	// grown the process.
	var setups []float64
	for len(setups) < setupSamples {
		runtime.GC()
		t0 := time.Now()
		if _, err := deploy(w, seed, nil, nil); err != nil {
			return report{}, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var rounds []result
	var violations []string
	var roundDur time.Duration
	for len(rounds) < minRounds || time.Since(start)+roundDur <= budget {
		// Collect the previous round's garbage first, so the run does not
		// pay for it.
		runtime.GC()
		t0 := time.Now()
		d, err := deploy(w, seed, nil, nil)
		if err != nil {
			return report{}, nil, err
		}
		r, err := d.run(nil, nil)
		if err != nil {
			return report{}, nil, err
		}
		for _, v := range r.gate.violations(w.records) {
			violations = append(violations, fmt.Sprintf("round %d: %s", len(rounds), v))
		}
		if len(rounds) > 0 {
			if diff := sameVirtual(rounds[0], r); diff != "" {
				violations = append(violations, fmt.Sprintf("round %d differs from round 0 under the same seed: %s", len(rounds), diff))
			}
		}
		// Keep only the summary: later rounds' heaps must not hold this
		// round's requests and responses.
		r.gate = gateInput{}
		rounds = append(rounds, r)
		roundDur = time.Since(t0)
	}

	first := rounds[0]
	var cpu, heap []float64
	for _, r := range rounds {
		cpu = append(cpu, float64(r.cpu)/float64(time.Microsecond)/float64(r.committed))
		heap = append(heap, r.liveMB)
	}
	rep := report{
		Correct:   len(violations) == 0,
		Attempted: first.attempted,
		Failed:    first.failed,
		Metrics: map[string]metric{
			"p50_ms":         {first.p50, "ms"},
			"p99_ms":         {first.p99, "ms"},
			"tput_tps":       {first.tput, "1/s"},
			"cpu_us_per_txn": {median(cpu), "us"},
			"live_heap_mb":   {median(heap), "MiB"},
			"setup_s":        {median(setups), "s"},
		},
	}
	notes := []string{
		fmt.Sprintf("rounds %d, set-ups %d, wall %.1f s", len(rounds), len(setups), time.Since(start).Seconds()),
		fmt.Sprintf("CPU us/txn per round %.1f", cpu),
		fmt.Sprintf("requests %d, latency samples after warm-up %d, generator lag %g ms",
			first.attempted, first.samples, first.lagMs),
		fmt.Sprintf("failed_frac %g", float64(first.failed)/float64(first.attempted)),
		fmt.Sprintf("final-state digest %s", first.digest),
	}
	for _, v := range violations {
		notes = append(notes, "VIOLATION: "+v)
	}
	return rep, notes, nil
}

// sameVirtual compares the deterministic outputs of two same-seed runs:
// the virtual-time metrics, the counters and the final-state digest. It
// returns "" when they agree byte for byte.
func sameVirtual(a, b result) string {
	var diffs []string
	if a.p50 != b.p50 || a.p99 != b.p99 || a.samples != b.samples {
		diffs = append(diffs, fmt.Sprintf("latency p50/p99/n %v/%v/%d vs %v/%v/%d",
			a.p50, a.p99, a.samples, b.p50, b.p99, b.samples))
	}
	if a.tput != b.tput {
		diffs = append(diffs, fmt.Sprintf("tput %v vs %v", a.tput, b.tput))
	}
	if a.digest != b.digest {
		diffs = append(diffs, "final-state digest")
	}
	for k, v := range a.counters {
		if b.counters[k] != v {
			diffs = append(diffs, fmt.Sprintf("counter %s %d vs %d", k, v, b.counters[k]))
		}
	}
	if len(a.counters) != len(b.counters) {
		diffs = append(diffs, "counter sets differ")
	}
	return strings.Join(diffs, "; ")
}
