package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/stateflow"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// workload is one traffic shape: an open-loop Poisson stream of YCSB
// requests generated inside the simulation against the compiled YCSB
// entity program on the simulated StateFlow runtime.
type workload struct {
	name    string
	mix     ycsb.Mix
	records int
	payload int           // bytes per record
	rate    float64       // offered requests per virtual second
	horizon time.Duration // arrivals stop here
	warmUp  time.Duration // latency samples of earlier arrivals are dropped
	slice   time.Duration // reporting slice for sim.slice_growth
	shards  int           // >1 deploys the shards behind the sequencer
}

var workloads = []workload{
	// Uniform YCSB A: every update crosses the egress, the WAL and the
	// periodic checkpoint, while uniform keys leave Aria almost nothing
	// to re-run.
	{name: "ycsb-a-durable", mix: ycsb.WorkloadA, records: 1000, payload: 1000,
		rate: 2000, horizon: 10 * time.Second, warmUp: time.Second, slice: 2 * time.Second},
	// A short burst of transfers over few accounts, offered far beyond
	// drain capacity: batches fill to MaxBatch and most of each batch
	// conflicts, so the fallback phase carries the load.
	{name: "xfer-burst", mix: ycsb.WorkloadT, records: 320, payload: 0,
		rate: 20000, horizon: 500 * time.Millisecond, slice: 2 * time.Second},
	// YCSB M over four shards: the transfers that span shards become
	// global batches with scoped fences behind the sequencer.
	{name: "xshard-m", mix: ycsb.WorkloadM, records: 1000, payload: 1000,
		rate: 1000, horizon: 20 * time.Second, warmUp: time.Second, slice: 4 * time.Second, shards: 4},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// step is the virtual length of one Cluster.RunUntil call.
	step = 10 * time.Millisecond
	// drainLimit bounds how long after the last arrival the run waits for
	// outstanding responses; a request still unanswered then has failed.
	drainLimit = 60 * time.Second
)

// client is the repo's open-loop Poisson generator plus a tap that keeps
// what the correctness gate and the metrics need: every issued request,
// every response (duplicates included) and the instant each was due.
type client struct {
	*sysapi.Generator
	now func() time.Duration // the cluster clock: the instant an event was due

	issued    []sysapi.Request
	dueAt     map[string]time.Duration
	got       map[string]int
	answered  int
	errs      int
	committed int // first responses without an error
	retried   int // first responses to transactions that aborted and re-ran
	latSum    time.Duration
	firstDue  time.Duration
	lastResp  time.Duration
	// lag is the largest delay between an arrival's due instant and the
	// instant the generator handled it.
	lag time.Duration
}

func newClient(w workload, sys sysapi.System, cluster *sim.Cluster, seed int64) *client {
	c := &client{now: cluster.Now, dueAt: map[string]time.Duration{}, got: map[string]int{}}
	gen := ycsb.NewGenerator(w.mix, ycsb.Uniform{N: w.records}, w.records, seed, "q")
	next := func(i int) sysapi.Request {
		r := gen.Next(i)
		if len(c.issued) == 0 {
			c.firstDue = c.now()
		}
		c.issued = append(c.issued, r)
		c.dueAt[r.Req] = c.now()
		return r
	}
	c.Generator = sysapi.NewGenerator("client", sys, w.rate, w.horizon, w.warmUp, next)
	return c
}

// OnMessage implements sim.Handler.
func (c *client) OnMessage(ctx *sim.Context, from string, msg sim.Message) {
	if m, ok := msg.(sysapi.MsgResponse); ok {
		id := m.Response.Req
		c.got[id]++
		if c.got[id] == 1 {
			c.answered++
			if m.Response.Err != "" {
				c.errs++
			} else {
				c.committed++
			}
			if m.Response.Retries > 0 {
				c.retried++
			}
			c.latSum += ctx.Now() - c.dueAt[id]
			delete(c.dueAt, id)
			c.lastResp = ctx.Now()
		}
	} else if lag := ctx.Now() - c.now(); lag > c.lag {
		c.lag = lag
	}
	c.Generator.OnMessage(ctx, from, msg)
}

// deployment is one fresh cluster running one workload.
type deployment struct {
	w       workload
	prog    *ir.Program
	cluster *sim.Cluster
	sys     *stateflow.ShardedSystem
	client  *client
	reg     *obs.Registry
}

// deploy compiles the YCSB program and sets up a cluster for w: compile,
// preload, CheckpointPreloadedState and Start — the span setup_s times.
// The cluster and the workload generator both draw from seed.
func deploy(w workload, seed int64, tracer *obs.Tracer, spans *spanLog) (*deployment, error) {
	d := &deployment{w: w, cluster: sim.New(seed), reg: obs.NewRegistry()}
	var err error
	spans.do("compiler.Compile", func() { d.prog, err = compiler.Compile(ycsb.Program()) })
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	cfg := stateflow.DefaultConfig()
	cfg.SnapshotEvery = 10
	cfg.Shards = w.shards
	cfg.Tracer = tracer
	d.sys = stateflow.New(d.cluster, d.prog, cfg)
	d.sys.RegisterMetrics(d.reg)
	load := ycsb.Loader(w.records, w.payload)
	spans.do("PreloadEntity", func() {
		for i := 0; i < w.records && err == nil; i++ {
			class, args := load(i)
			err = d.sys.PreloadEntity(class, args...)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	d.client = newClient(w, d.sys, d.cluster, seed*7919+17)
	d.cluster.Add(d.client.ID, d.client)
	spans.do("CheckpointPreloadedState", d.sys.CheckpointPreloadedState)
	spans.do("Cluster.Start", d.cluster.Start)
	return d, nil
}

// slice is the CPU and commit tally of one reporting slice.
type slice struct {
	cpu     time.Duration
	commits int
}

// result is everything one run of a deployment measured.
type result struct {
	cpu      time.Duration // process CPU inside RunUntil
	events   int           // RunUntil's return counts
	allocKB  float64       // bytes allocated inside RunUntil, in KiB
	liveMB   float64       // heap after a forced GC, before teardown
	slices   []slice
	p50, p99 float64 // virtual client latency after warm-up, ms
	samples  int
	tput     float64 // committed transactions per virtual second
	lagMs    float64 // generator lag
	counters map[string]int64
	digest   string
	gate     gateInput
	// Requests answered without an error, issued, and answered with an
	// error or not at all.
	committed int
	attempted int
	failed    int
}

// run drives a deployment to completion in equal virtual steps and
// collects the end-to-end metrics. With prof set, a CPU profile of the
// stepping loop is written to it.
func (d *deployment) run(spans *spanLog, prof io.Writer) (result, error) {
	var r result
	c := d.client
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return r, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cur := slice{}
	before := 0 // commits before the current slice
	nextCut := d.w.slice
	for {
		to := d.cluster.Now() + step
		spans.begin()
		t0 := cpuTime()
		r.events += d.cluster.RunUntil(to)
		used := cpuTime() - t0
		r.cpu += used
		cur.cpu += used
		done := d.cluster.Now() >= d.w.horizon && c.answered >= c.Submitted
		if d.cluster.Now() >= nextCut || done {
			spans.end(fmt.Sprintf("Cluster.RunUntil slice %d", len(r.slices)))
			cur.commits, before = c.committed-before, c.committed
			r.slices = append(r.slices, cur)
			cur = slice{}
			nextCut += d.w.slice
		}
		if done || d.cluster.Now() > d.w.horizon+drainLimit {
			break
		}
	}
	if prof != nil {
		pprof.StopCPUProfile()
	}
	// A final partial slice folds into the one before it, so every
	// reported slice spans at least a full slice of virtual time.
	if n := len(r.slices); n >= 2 && d.cluster.Now() < d.w.slice*time.Duration(n) {
		r.slices[n-2].cpu += r.slices[n-1].cpu
		r.slices[n-2].commits += r.slices[n-1].commits
		r.slices = r.slices[:n-1]
	}
	runtime.ReadMemStats(&ms1)
	r.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.liveMB = float64(ms1.HeapAlloc) / (1 << 20)

	lat := c.Latency.Stats()
	r.p50, r.p99, r.samples = lat.P50Ms(), lat.P99Ms(), int(lat.Count)
	if span := c.lastResp - c.firstDue; span > 0 {
		r.tput = float64(c.committed) / span.Seconds()
	}
	r.lagMs = float64(c.lag) / float64(time.Millisecond)
	r.counters = d.reg.Snapshot()
	r.gate = d.gateInput()
	r.digest = r.gate.digest
	r.committed, r.attempted, r.failed = c.committed, len(c.issued), r.gate.failed()
	return r, nil
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gateInput is what the correctness gate checks after a run.
type gateInput struct {
	issued    []sysapi.Request
	responses map[string]int // responses received per request id
	errs      int
	committed int
	// committedUpdates sums the amounts of updates answered without an
	// error; transfers conserve, so the final balances must add up to the
	// initial total plus this.
	committedUpdates int64
	initialTotal     int64
	balanceTotal     int64
	accounts         int
	digest           string
}

func (d *deployment) gateInput() gateInput {
	c := d.client
	g := gateInput{
		issued: c.issued, responses: c.got, errs: c.errs, committed: c.committed,
		initialTotal: int64(d.w.records) * ycsb.InitialBalance,
	}
	// An error response voids its update; the gate fails on any error
	// anyway, so this sum only has to be right when errs == 0.
	for _, r := range c.issued {
		if r.Method == "update" && c.got[r.Req] > 0 {
			g.committedUpdates += r.Args[0].I
		}
	}
	g.digest, g.balanceTotal, g.accounts = stateDigest(d.sys.Keys("Account"), func(key string) (interp.MapState, bool) {
		return d.sys.EntityState("Account", key)
	})
	return g
}

// stateDigest hashes every account's committed state in key order and
// sums the balances.
func stateDigest(keys []string, get func(key string) (interp.MapState, bool)) (digest string, balances int64, accounts int) {
	h := sha256.New()
	for _, key := range keys {
		st, ok := get(key)
		if !ok {
			continue
		}
		accounts++
		balances += st["balance"].I
		attrs := make([]string, 0, len(st))
		for a := range st {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		fmt.Fprintf(h, "%s\n", key)
		for _, a := range attrs {
			fmt.Fprintf(h, "\t%s=%s\n", a, st[a].Repr())
		}
	}
	return hex.EncodeToString(h.Sum(nil)), balances, accounts
}

// violations lists every way a run broke the correctness contract.
func (g gateInput) violations(records int) []string {
	var out []string
	missing, dup := 0, 0
	issued := make(map[string]bool, len(g.issued))
	for _, r := range g.issued {
		issued[r.Req] = true
		switch n := g.responses[r.Req]; {
		case n == 0:
			missing++
		case n > 1:
			dup++
		}
	}
	unknown := 0
	for id := range g.responses {
		if !issued[id] {
			unknown++
		}
	}
	if missing > 0 {
		out = append(out, fmt.Sprintf("%d of %d requests got no response", missing, len(g.issued)))
	}
	if dup > 0 {
		out = append(out, fmt.Sprintf("%d requests got more than one response", dup))
	}
	if unknown > 0 {
		out = append(out, fmt.Sprintf("%d responses answer no issued request", unknown))
	}
	if g.errs > 0 {
		out = append(out, fmt.Sprintf("%d responses carry an error", g.errs))
	}
	if g.accounts != records {
		out = append(out, fmt.Sprintf("%d accounts in the final state, want %d", g.accounts, records))
	}
	if want := g.initialTotal + g.committedUpdates; g.balanceTotal != want {
		out = append(out, fmt.Sprintf("balances sum to %d, want %d (initial %d + committed updates %d)",
			g.balanceTotal, want, g.initialTotal, g.committedUpdates))
	}
	return out
}

// failed counts requests with an error response or none at all.
func (g gateInput) failed() int {
	n := g.errs
	for _, r := range g.issued {
		if g.responses[r.Req] == 0 {
			n++
		}
	}
	return n
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
