package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/metrics"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/runtime/local"
	"statefulentities.dev/stateflow/internal/state"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// replayBudget is the minimum wall time each layer replay is timed for.
const replayBudget = 300 * time.Millisecond

// Phases reported from the traced run's virtual spans.
var phaseNames = []string{
	"ingress.queue", "execute", "fallback.round", "validate", "apply", "commit.fsync",
	"fence.wait", "fence.park", "global.execute", "__apply__", "unfence",
}

// Worker.Breakdown components reported as shares.
var workerComponents = []string{
	"function_execution", "splitting_instrumentation", "txn_validation",
	"state_serialization", "snapshot_persistence",
}

// perLayer runs the workload once untraced and once traced (tracer, CPU
// profile and the benchmark's real-time spans), checks both and their
// agreement, replays the layers' public entry points on the workload's
// own inputs, and reports the per-layer metrics.
func perLayer(w workload, seed int64, tracePath string) (report, []string, error) {
	base, err := deploy(w, seed, nil, nil)
	if err != nil {
		return report{}, nil, err
	}
	untraced, err := base.run(nil, nil)
	if err != nil {
		return report{}, nil, err
	}
	base = nil // release the untraced cluster before the traced one runs

	spans := newSpanLog()
	tracer := obs.NewTracer()
	d, err := deploy(w, seed, tracer, spans)
	if err != nil {
		return report{}, nil, err
	}
	var prof bytes.Buffer
	traced, err := d.run(spans, &prof)
	if err != nil {
		return report{}, nil, err
	}

	var violations []string
	for _, v := range untraced.gate.violations(w.records) {
		violations = append(violations, "untraced run: "+v)
	}
	for _, v := range traced.gate.violations(w.records) {
		violations = append(violations, "traced run: "+v)
	}
	if diff := sameVirtual(untraced, traced); diff != "" {
		violations = append(violations, "tracer changed the run: "+diff)
	}

	m := map[string]metric{}
	add := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	n := float64(untraced.committed)

	// sim and runtime, from the untraced run.
	add("sim.events_per_txn", "count", float64(untraced.events)/n)
	add("sim.ns_per_event", "ns", float64(untraced.cpu)/float64(untraced.events))
	add("sim.slice_growth", "ratio", sliceGrowth(untraced.slices))
	add("runtime.alloc_kb_per_txn", "KiB", untraced.allocKB/n)

	// Counters of the traced run (equal to the untraced run's: checked).
	cnt := traced.counters
	sum := func(suffix string) float64 {
		var t int64
		for k, v := range cnt {
			if strings.HasSuffix(k, suffix) {
				t += v
			}
		}
		return float64(t)
	}
	commits, epochs := sum(".coordinator.commits"), sum(".coordinator.epochs_closed")
	add("coord.txn_per_batch", "count", commits/epochs)
	add("coord.fallback_rounds_per_batch", "count", sum(".coordinator.fallback_rounds")/epochs)
	firstTry := commits - sum(".coordinator.fallback_commits") - float64(d.client.retried)
	add("coord.first_try_frac", "ratio", math.Max(firstTry, 0)/commits)

	bd := metrics.NewBreakdown()
	var snaps, snapBytes float64
	for _, sh := range d.sys.Shards() {
		for _, wk := range sh.Workers() {
			bd.Merge(wk.Breakdown)
		}
		snaps += float64(sh.Snapshots.Count())
		for id := 1; id <= sh.Snapshots.Count(); id++ {
			if meta, ok := sh.Snapshots.Get(int64(id)); ok {
				for _, b := range meta.Bytes {
					snapBytes += float64(b)
				}
			}
		}
	}
	for _, c := range workerComponents {
		add("worker."+c+".share", "ratio", bd.Fraction(c))
	}
	add("snapshot.count", "count", snaps)
	add("snapshot.bytes_per_snapshot", "B", snapBytes/snaps)

	var seqGlobal, seqSingle, seqBatches, seqScoped, seqFull, seqWaits float64
	if q := d.sys.Sequencer(); q != nil {
		st := q.Stats()
		seqGlobal, seqSingle, seqBatches = float64(st.GlobalTxns), float64(st.SingleShard), float64(st.GlobalBatches)
		seqScoped, seqFull, seqWaits = float64(st.ScopedFences), float64(st.FullFences), float64(st.FenceWaits)
	}
	add("seq.global_frac", "ratio", seqGlobal/(seqGlobal+seqSingle))
	add("seq.txn_per_global_batch", "count", seqGlobal/seqBatches)
	add("seq.scoped_fence_frac", "ratio", seqScoped/(seqScoped+seqFull))
	add("seq.fence_waits_per_batch", "count", seqWaits/seqBatches)

	var dl dlog.Stats
	for _, sh := range d.sys.Shards() {
		st := sh.Dlog.Stats()
		dl.Appends += st.Appends
		dl.AppendedBytes += st.AppendedBytes
		dl.Syncs += st.Syncs
		dl.Checkpoints += st.Checkpoints
		dl.Compacted += st.Compacted
	}
	add("dlog.appends_per_txn", "count", float64(dl.Appends)/n)
	add("dlog.bytes_per_txn", "B", float64(dl.AppendedBytes)/n)
	add("dlog.syncs_per_txn", "count", float64(dl.Syncs)/n)
	add("dlog.checkpoints", "count", float64(dl.Checkpoints))
	add("dlog.compacted_per_checkpoint", "count", float64(dl.Compacted)/float64(dl.Checkpoints))

	// Virtual phases from the tracer.
	events, err := parseTrace(tracer)
	if err != nil {
		return report{}, nil, err
	}
	for name, ph := range phases(events, d.client.latSum) {
		add("phase."+name+".p50_ms", "ms", ph.p50)
		add("phase."+name+".p99_ms", "ms", ph.p99)
		add("phase."+name+".share", "ratio", ph.share)
	}

	// CPU attribution of the traced run.
	shares, err := moduleShares(prof.Bytes())
	if err != nil {
		return report{}, nil, err
	}
	for mod, v := range shares {
		// Metric names carry no '/': systems/stateflow reads systems_stateflow.
		add("cpu."+strings.ReplaceAll(mod, "/", "_")+".share", "ratio", v)
	}
	add("trace.overhead_frac", "ratio",
		(float64(traced.cpu)/float64(traced.committed))/(float64(untraced.cpu)/n)-1)

	// Replays of the layers' public functions on the workload's inputs.
	rp, err := replay(w, d.prog, d.client.issued, commits/epochs, dl, spans)
	if err != nil {
		return report{}, nil, err
	}
	for k, v := range rp.metrics {
		m[k] = v
	}
	if rp.localDigest != traced.digest {
		violations = append(violations, "the Local runtime's replay of the request stream reached another final state")
	}

	if err := writeTrace(tracePath, events, spans); err != nil {
		return report{}, nil, fmt.Errorf("write trace: %w", err)
	}
	rep := report{
		Correct:   len(violations) == 0,
		Attempted: traced.attempted,
		Failed:    traced.failed,
		Metrics:   m,
	}
	notes := []string{
		fmt.Sprintf("requests %d, committed %d, latency samples after warm-up %d",
			traced.attempted, traced.committed, traced.samples),
		fmt.Sprintf("untraced p50 %g ms, p99 %g ms, %g txn/s, %.1f us CPU/txn",
			untraced.p50, untraced.p99, untraced.tput, float64(untraced.cpu)/float64(time.Microsecond)/n),
		fmt.Sprintf("trace written to %s (%d virtual events, %d benchmark spans)", tracePath, len(events), len(spans.spans)),
	}
	for _, v := range violations {
		notes = append(notes, "VIOLATION: "+v)
	}
	return rep, notes, nil
}

// sliceGrowth is the last reporting slice's CPU per committed transaction
// over the first's.
func sliceGrowth(ss []slice) float64 {
	if len(ss) < 2 || ss[0].commits == 0 || ss[len(ss)-1].commits == 0 {
		return 0
	}
	per := func(s slice) float64 { return float64(s.cpu) / float64(s.commits) }
	return per(ss[len(ss)-1]) / per(ss[0])
}

// phase summarizes one span name of the virtual trace.
type phase struct {
	p50, p99 float64 // span duration percentiles, ms
	// share is the span time each transaction spends in the phase,
	// summed over transactions, over the summed client latency.
	share float64
}

// phases summarizes the traced run's virtual spans. A span's time counts
// once per transaction it holds up: per-transaction spans (ingress.queue)
// once; epoch spans once per transaction of that epoch on that
// coordinator; commit.fsync once per response it releases; the global
// batch spans once per transaction of the batch.
func phases(events []chromeEvent, latSum time.Duration) map[string]phase {
	type epochKey struct {
		lane  int
		epoch string
	}
	epochTxns := map[epochKey]float64{}
	batchTxns := map[string]float64{}
	for _, e := range events {
		switch e.Name {
		case "ingress.queue":
			epochTxns[epochKey{e.Tid, e.Args["epoch"]}]++
		case "global.execute":
			n, _ := strconv.ParseFloat(e.Args["txns"], 64)
			batchTxns[e.Args["seq"]] = n
		}
	}
	durs := map[string][]time.Duration{}
	weighted := map[string]float64{}
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		var weight float64
		switch e.Name {
		case "ingress.queue":
			weight = 1
		case "execute", "fallback.round", "validate", "apply":
			weight = epochTxns[epochKey{e.Tid, e.Args["epoch"]}]
		case "commit.fsync":
			weight, _ = strconv.ParseFloat(e.Args["staged"], 64)
		case "fence.wait", "fence.park", "global.execute", "__apply__", "unfence":
			weight = batchTxns[e.Args["seq"]]
		default:
			continue
		}
		dur := time.Duration(e.Dur * 1e3)
		durs[e.Name] = append(durs[e.Name], dur)
		weighted[e.Name] += weight * float64(dur)
	}
	out := map[string]phase{}
	for _, name := range phaseNames {
		ds := durs[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		ms := func(p float64) float64 {
			return float64(obs.PercentileOf(ds, p)) / float64(time.Millisecond)
		}
		out[name] = phase{p50: ms(50), p99: ms(99), share: weighted[name] / float64(latSum)}
	}
	return out
}

// replayed holds the layer replays' metrics.
type replayed struct {
	metrics     map[string]metric
	localDigest string
}

// replay times the public entry points of single layers on inputs taken
// from the workload: its program, its dataset, its request stream, its
// batches' size and its log records' size.
func replay(w workload, prog *ir.Program, reqs []sysapi.Request, batchSize float64, dl dlog.Stats, spans *spanLog) (replayed, error) {
	out := replayed{metrics: map[string]metric{}}
	var err error

	spans.do("replay compiler.Compile", func() {
		var ms []float64
		timeFor(replayBudget, func() {
			t0 := time.Now()
			if _, e := compiler.Compile(prog.Source); e != nil {
				err = e
			}
			ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		})
		out.metrics["compiler.compile_ms"] = metric{median(ms), "ms"}
	})
	if err != nil {
		return out, err
	}

	dataset, err := loadStore(w, prog)
	if err != nil {
		return out, err
	}
	spans.do("replay state.Store.Encode", func() {
		var size int
		elapsed, n := timeFor(replayBudget, func() { size = len(dataset.Encode()) })
		us := float64(elapsed) / float64(time.Microsecond) / float64(n)
		out.metrics["state.encode_us_per_mb"] = metric{us / (float64(size) / 1e6), "us/MB"}
	})

	spans.do("replay SimLog.Append", func() {
		size := 0
		if dl.Appends > 0 {
			size = dl.AppendedBytes / dl.Appends
		}
		rec := dlog.Record{Kind: 1, Data: bytes.Repeat([]byte{'r'}, size)}
		const perLog = 4096 // records per log before it is replaced
		var elapsed time.Duration
		appends := 0
		for elapsed < replayBudget {
			l := dlog.NewSimLog()
			t0 := time.Now()
			for i := 0; i < perLog; i++ {
				rec.At = int64(i)
				l.Append(rec)
			}
			elapsed += time.Since(t0)
			appends += perLog
		}
		out.metrics["dlog.append_ns"] = metric{float64(elapsed) / float64(appends), "ns"}
	})

	spans.do("replay aria.Validate/Fallback", func() {
		var v, f float64
		v, f, err = ariaReplay(prog, dataset, reqs, batchSize)
		out.metrics["aria.validate_us_per_batch"] = metric{v, "us"}
		out.metrics["aria.fallback_us_per_batch"] = metric{f, "us"}
	})
	if err != nil {
		return out, err
	}

	spans.do("replay local runtime", func() {
		var us float64
		us, out.localDigest, err = localReplay(w, prog, reqs)
		out.metrics["local.us_per_op"] = metric{us, "us"}
	})
	return out, err
}

// timeFor calls fn until budget has elapsed (at least once) and returns
// the elapsed time and the number of calls.
func timeFor(budget time.Duration, fn func()) (time.Duration, int) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < budget {
		fn()
		n++
	}
	return time.Since(start), n
}

// loadStore builds a state store holding the workload's preloaded dataset.
func loadStore(w workload, prog *ir.Program) (*state.Store, error) {
	ex := core.NewExecutor(prog)
	st := state.NewStore(prog.Layouts())
	load := ycsb.Loader(w.records, w.payload)
	for i := 0; i < w.records; i++ {
		class, args := load(i)
		key, err := ex.KeyForCtor(class, args)
		if err != nil {
			return nil, err
		}
		row := interp.MapState{}
		if err := ex.Interp().ExecInit(class, args, row); err != nil {
			return nil, err
		}
		st.PutMap(interp.EntityRef{Class: class, Key: key}, row)
	}
	return st, nil
}

// ariaReplay cuts the request stream into batches of the traced run's
// mean batch size, derives each request's reservation set by executing
// it in an aria.Workspace over the dataset, and times aria.Validate and
// aria.Fallback per batch, in microseconds.
func ariaReplay(prog *ir.Program, dataset *state.Store, reqs []sysapi.Request, batchSize float64) (validate, fallback float64, err error) {
	const maxBatches = 200
	size := int(math.Round(batchSize))
	if size < 1 {
		size = 1
	}
	ex := core.NewExecutor(prog)
	type batch struct {
		order []aria.TID
		sets  map[aria.TID]*aria.RWSet
	}
	var batches []batch
	for start := 0; start+size <= len(reqs) && len(batches) < maxBatches; start += size {
		b := batch{sets: map[aria.TID]*aria.RWSet{}}
		for i, r := range reqs[start : start+size] {
			tid := aria.TID(i + 1)
			ws := aria.NewWorkspace(tid, dataset)
			if err := drive(ex, ws, r); err != nil {
				return 0, 0, err
			}
			b.order = append(b.order, tid)
			b.sets[tid] = ws.RW
		}
		batches = append(batches, b)
	}
	if len(batches) == 0 {
		return 0, 0, fmt.Errorf("aria replay: %d requests make no batch of %d", len(reqs), size)
	}
	per := func(fn func(batch)) float64 {
		i := 0
		elapsed, n := timeFor(replayBudget, func() {
			fn(batches[i%len(batches)])
			i++
		})
		return float64(elapsed) / float64(time.Microsecond) / float64(n)
	}
	validate = per(func(b batch) { aria.Validate(b.order, b.sets) })
	fallback = per(func(b batch) { aria.Fallback(b.order, b.sets) })
	return validate, fallback, nil
}

// drive executes one request's call chain against a store until its
// response appears.
func drive(ex *core.Executor, store core.Store, r sysapi.Request) error {
	queue := []*core.Event{{Kind: core.EvInvoke, Req: r.Req, Target: r.Target, Method: r.Method, Args: r.Args}}
	for len(queue) > 0 {
		ev := queue[0]
		queue = queue[1:]
		if ev.Kind == core.EvResponse {
			if ev.Err != "" {
				return fmt.Errorf("request %s: %s", r.Req, ev.Err)
			}
			return nil
		}
		out, err := ex.Step(ev, store)
		if err != nil {
			return fmt.Errorf("request %s: %w", r.Req, err)
		}
		queue = append(queue, out...)
	}
	return fmt.Errorf("request %s: no response", r.Req)
}

// localReplay runs the request stream through the Local runtime, single
// threaded with no dataflow, and returns the microseconds per request
// and the final-state digest of the first pass.
func localReplay(w workload, prog *ir.Program, reqs []sysapi.Request) (float64, string, error) {
	var digest string
	var elapsed time.Duration
	ops := 0
	for digest == "" || elapsed < replayBudget {
		rt := local.New(prog)
		load := ycsb.Loader(w.records, w.payload)
		for i := 0; i < w.records; i++ {
			class, args := load(i)
			if err := rt.PreloadEntity(class, args...); err != nil {
				return 0, "", err
			}
		}
		t0 := time.Now()
		for _, r := range reqs {
			res, err := rt.Invoke(r.Target.Class, r.Target.Key, r.Method, r.Args...)
			if err == nil && res.Err != "" {
				err = fmt.Errorf("%s", res.Err)
			}
			if err != nil {
				return 0, "", fmt.Errorf("local replay of %s: %w", r.Req, err)
			}
		}
		elapsed += time.Since(t0)
		ops += len(reqs)
		if digest == "" {
			digest, _, _ = stateDigest(rt.Keys("Account"), func(key string) (interp.MapState, bool) {
				return rt.State("Account", key)
			})
		}
	}
	return float64(elapsed) / float64(time.Microsecond) / float64(ops), digest, nil
}
