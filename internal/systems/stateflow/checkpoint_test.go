package stateflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/obs"
	"statefulentities.dev/stateflow/internal/sim"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// fullImageCheckpoint is the checkpoint format the coordinator wrote
// before delivered-records stayed in the retained log suffix: every live
// delivered entry (plus the staged ones) re-encoded in sorted id order at
// every checkpoint. Kept as the reference the suffix design is measured
// against (TestCheckpointPayloadFlat, BenchmarkCoordinatorCheckpoint).
type fullImageCheckpoint struct {
	epoch     int64
	nextTID   aria.TID
	sealed    int64
	sealedCut time.Duration
	delivered map[string]deliveredEntry
	floors    map[string]int64
}

func encodeFullImageCheckpoint(c fullImageCheckpoint) []byte {
	e := interp.NewEncoder()
	e.Varint(c.epoch)
	e.Varint(int64(c.nextTID))
	e.Varint(c.sealed)
	e.Varint(int64(c.sealedCut))
	e.Uvarint(uint64(len(c.delivered)))
	for _, id := range sortedKeys(c.delivered) {
		appendDelivered(e, id, c.delivered[id])
	}
	e.Uvarint(uint64(len(c.floors)))
	srcs := make([]string, 0, len(c.floors))
	for src := range c.floors {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		e.Str(src)
		e.Varint(c.floors[src])
	}
	return e.Bytes()
}

func sortedKeys(m map[string]deliveredEntry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fullImageOf is the payload the full-image format would write for the
// coordinator's current state (delivered plus staged, as the old
// writeCheckpoint merged them).
func fullImageOf(c *Coordinator) []byte {
	merged := make(map[string]deliveredEntry, len(c.delivered)+len(c.staged))
	for id, ent := range c.delivered {
		merged[id] = ent
	}
	for _, s := range c.staged {
		merged[s.ent.resp.Req] = s.ent
	}
	return encodeFullImageCheckpoint(fullImageCheckpoint{epoch: c.epoch, nextTID: c.nextTID,
		sealed: c.sealed, sealedCut: c.snapCuts[c.sealed], delivered: merged, floors: c.dedupFloor})
}

// prunedCheckpointRun is one bank deployment with builder-minted ids
// (so pruning raises dedup floors), a fast retrying client, and a
// flight recorder that timestamps every checkpoint.
type prunedCheckpointRun struct {
	cluster  *sim.Cluster
	sys      *ShardedSystem
	client   *countingClient
	flight   *obs.FlightRecorder
	requests int
	accounts int
}

// newPrunedCheckpointRun deploys 1 or 2 shards. The single coordinator
// gets a ring of transfers over 4 accounts; two shards get bursts over 16
// accounts with every fourth transfer crossing shards. A global batch's
// apply records its embedded responses at the apply's source position,
// which the parked cursor has not passed yet, and with a small batch cap
// the backlog queued behind the fence drains over several snapshots: the
// shape that leaves expired entries past a snapshot offset (held).
func newPrunedCheckpointRun(t *testing.T, seed int64, shards int) *prunedCheckpointRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	cfg.DedupRetention = 25 * time.Millisecond
	cfg.MaxBatch = 2
	cfg.Shards = shards
	cfg.Flight = obs.NewFlightRecorder(1 << 15)
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := &prunedCheckpointRun{requests: 48, accounts: 4, flight: cfg.Flight}
	b := sysapi.NewBuilder("cl-")
	transfer := func(from, to string) sysapi.Request {
		return b.Next(interp.EntityRef{Class: "Account", Key: from}, "transfer",
			[]interp.Value{interp.IntV(1), interp.RefV("Account", to)}, "transfer")
	}
	var script []sysapi.Scheduled
	if shards == 1 {
		for i := 0; i < r.requests; i++ {
			script = append(script, sysapi.Scheduled{
				At:  time.Duration(i/2+1) * 6 * time.Millisecond,
				Req: transfer(acct(i%r.accounts), acct((i+1)%r.accounts)),
			})
		}
	} else {
		r.requests, r.accounts = 96, 16
		groups := shardAccounts(shardedProbe(t, shards), r.accounts)
		for i := 0; i < r.requests; i++ {
			g := groups[i%2]
			from, to := g[i%len(g)], g[(i+1)%len(g)]
			if i%4 == 3 {
				from, to = groups[0][i%len(groups[0])], groups[1][i%len(groups[1])]
			}
			script = append(script, sysapi.Scheduled{
				At:  time.Duration(i/8+1) * 20 * time.Millisecond,
				Req: transfer(from, to),
			})
		}
	}
	r.cluster = sim.New(seed)
	r.sys = New(r.cluster, prog, cfg)
	for i := 0; i < r.accounts; i++ {
		if err := r.sys.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	r.sys.CheckpointPreloadedState()
	inner := sysapi.NewScriptClient("client", r.sys, script)
	// Well inside the retention window: a response a reboot kept from
	// being sent is re-served before its entry can expire.
	inner.RetryEvery = 4 * time.Millisecond
	r.client = &countingClient{inner: inner, Deliveries: map[string]int{}}
	r.cluster.Add("client", r.client)
	return r
}

// checkpointInstants returns the virtual instants of one coordinator's
// checkpoints and the largest held set any coordinator's carried.
func (r *prunedCheckpointRun) checkpointInstants(coordID string) (at []time.Duration, maxHeld int) {
	for _, ev := range r.flight.Events() {
		if ev.Kind != "checkpoint" {
			continue
		}
		if ev.Node == coordID {
			at = append(at, ev.At)
		}
		var snap, size, delivered, held int
		if _, err := fmt.Sscanf(ev.Detail, "seals snapshot %d: %d B, %d delivered, %d held",
			&snap, &size, &delivered, &held); err == nil && held > maxHeld {
			maxHeld = held
		}
	}
	return at, maxHeld
}

// assertExactlyOnce checks the client-edge contract under retries and
// the conservation of the total balance.
func (r *prunedCheckpointRun) assertExactlyOnce(fail func(format string, args ...any)) {
	c := r.client
	if c.inner.Done != r.requests {
		fail("responses: %d/%d", c.inner.Done, r.requests)
	}
	for id, resp := range c.inner.Responses {
		if resp.Err != "" {
			fail("request %s failed: %s", id, resp.Err)
		}
	}
	for id, count := range c.Deliveries {
		if allowed := 1 + c.inner.Retries[id]; count > allowed {
			fail("request %s delivered %d times with %d retries", id, count, c.inner.Retries[id])
		}
	}
	sum := int64(0)
	for i := 0; i < r.accounts; i++ {
		st, ok := r.sys.EntityState("Account", acct(i))
		if !ok {
			fail("account %s missing", acct(i))
		}
		sum += st["balance"].I
	}
	if want := int64(r.accounts) * 100; sum != want {
		fail("balances sum to %d, want %d (lost or duplicated effects)", sum, want)
	}
}

// TestCoordinatorCrashAcrossPrunedCheckpoints reboots a coordinator at
// seeded points around its checkpoint instants — just before, at and
// just after — with a dedup window short enough (25 ms) that prunes,
// held entries and a retained log suffix spanning several checkpoints
// all occur. The single coordinator and either shard coordinator of a
// 2-shard deployment take turns as the victim. After every reboot:
//
//   - every released entry the pre-crash coordinator had not pruned is
//     back in delivered, with the same entry, and nothing comes back
//     that was neither released nor staged (pruned entries stay pruned);
//   - the dedup floors equal the pre-crash floors;
//   - every request is answered exactly once (effectively) and the
//     total balance is conserved.
func TestCoordinatorCrashAcrossPrunedCheckpoints(t *testing.T) {
	offsets := []time.Duration{-time.Millisecond, -100 * time.Microsecond, -time.Microsecond, 0,
		time.Microsecond, 100 * time.Microsecond, time.Millisecond}
	runs, pruned, maxHeld, suffixSpans := 0, 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		shards, victim := 1, 0
		if seed%2 == 0 {
			shards, victim = 2, int(seed/2)%2
		}
		ref := newPrunedCheckpointRun(t, seed, shards)
		coordID := ref.sys.Shards()[victim].coordID
		ref.cluster.Start()
		ref.cluster.RunUntil(3 * time.Second)
		instants, held := ref.checkpointInstants(coordID)
		if held > maxHeld {
			maxHeld = held
		}
		if len(instants) < 4 {
			t.Fatalf("seed %d: only %d checkpoints of %s in the reference run", seed, len(instants), coordID)
		}
		rng := rand.New(rand.NewSource(seed * 7919))
		for pick := 0; pick < 2; pick++ {
			// Skip the preload checkpoint and the last one.
			ck := instants[1+rng.Intn(len(instants)-2)]
			for _, off := range offsets {
				crashAt := ck + off
				down := time.Duration(2+rng.Intn(6)) * time.Millisecond
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d shards %d %s crash@%s (checkpoint %s%+v, down %s): %s",
						seed, shards, coordID, crashAt, ck, off, down, fmt.Sprintf(format, args...))
				}
				r := newPrunedCheckpointRun(t, seed, shards)
				shard := r.sys.Shards()[victim]
				var preDelivered, preStaged map[string]deliveredEntry
				var preFloors map[string]int64
				r.cluster.WatchCrash(coordID, func(time.Duration) {
					c := shard.Coordinator()
					preDelivered = make(map[string]deliveredEntry, len(c.delivered))
					for id, ent := range c.delivered {
						preDelivered[id] = ent
					}
					preStaged = map[string]deliveredEntry{}
					for _, s := range c.staged {
						preStaged[s.ent.resp.Req] = s.ent
					}
					preFloors = make(map[string]int64, len(c.dedupFloor))
					for src, f := range c.dedupFloor {
						preFloors[src] = f
					}
				})
				r.cluster.ScheduleCrash(coordID, crashAt, crashAt+down)
				r.cluster.Start()
				r.cluster.RunUntil(crashAt + down)

				c := shard.Coordinator()
				if c.Restarts != 1 {
					fail("%d restarts, want 1", c.Restarts)
				}
				for id, ent := range preDelivered {
					got, ok := c.delivered[id]
					if !ok {
						fail("released entry %s lost by the reboot", id)
					}
					if !reflect.DeepEqual(got, ent) {
						fail("entry %s rebuilt as %+v, want %+v", id, got, ent)
					}
				}
				for id, ent := range c.delivered {
					if _, ok := preDelivered[id]; ok {
						continue
					}
					if want, ok := preStaged[id]; !ok || !reflect.DeepEqual(ent, want) {
						fail("entry %s rebuilt but neither delivered nor staged before the crash", id)
					}
				}
				if !reflect.DeepEqual(c.dedupFloor, preFloors) {
					fail("floors %v after the reboot, want %v", c.dedupFloor, preFloors)
				}
				if len(preFloors) > 0 {
					pruned++
				}
				lastCk := time.Duration(-1)
				for _, at := range instants {
					if at < crashAt {
						lastCk = at
					}
				}
				if len(c.released) > 0 && c.delivered[c.released[0].id].at < lastCk {
					suffixSpans++
				}

				r.cluster.RunUntil(20 * time.Second)
				r.assertExactlyOnce(fail)
				if _, held := r.checkpointInstants(coordID); held > maxHeld {
					maxHeld = held
				}
				runs++
			}
		}
	}
	// The sweep must have exercised what it claims to.
	if pruned == 0 {
		t.Fatal("no reboot followed a prune (floors never raised)")
	}
	if maxHeld == 0 {
		t.Fatal("no checkpoint carried held entries")
	}
	if suffixSpans == 0 {
		t.Fatal("no reboot rebuilt entries from a retained suffix older than the latest checkpoint")
	}
	t.Logf("%d reboots: %d after a prune, %d rebuilt a multi-checkpoint suffix, up to %d held entries",
		runs, pruned, suffixSpans, maxHeld)
}

// TestCheckpointPayloadFlat pins the checkpoint's cost as independent of
// how many entries the dedup window holds: under steady traffic with the
// default 30 s retention nothing is pruned, so the window grows for the
// whole run — yet the payload written at 8 virtual s is no larger than
// the one at 2 s plus a constant. The full-image format's payload over
// the same run is the contrast: it grows with every answered request.
func TestCheckpointPayloadFlat(t *testing.T) {
	const accounts = 8
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 10
	prog, err := compiler.Compile(bank)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	b := sysapi.NewBuilder("cl-")
	var script []sysapi.Scheduled
	for i := 0; i < 4000; i++ {
		script = append(script, sysapi.Scheduled{
			At:  time.Duration(i+1) * 2 * time.Millisecond,
			Req: builderTransfer(b, acct(i%accounts), acct((i+1)%accounts), 1),
		})
	}
	cluster := sim.New(3)
	sys := New(cluster, prog, cfg).Single()
	for i := 0; i < accounts; i++ {
		if err := sys.PreloadEntity("Account", interp.StrV(acct(i)), interp.IntV(100)); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	sys.CheckpointPreloadedState()
	cluster.Add("client", sysapi.NewScriptClient("client", sys, script))
	cluster.Start()

	type sample struct{ payload, fullImage, delivered int }
	at := func(d time.Duration) sample {
		cluster.RunUntil(d)
		c := sys.Coordinator()
		return sample{sys.Dlog.Stats().CheckpointBytes, len(fullImageOf(c)), len(c.delivered)}
	}
	early, late := at(2*time.Second), at(8*time.Second)
	const slack = 64
	if late.payload > early.payload+slack {
		t.Fatalf("checkpoint payload grew from %d B at 2 s to %d B at 8 s (window %d -> %d entries)",
			early.payload, late.payload, early.delivered, late.delivered)
	}
	if late.delivered < 3*early.delivered || late.fullImage < 3*early.fullImage {
		t.Fatalf("the window did not grow (%d -> %d entries, full image %d -> %d B): the test exercises nothing",
			early.delivered, late.delivered, early.fullImage, late.fullImage)
	}
	if got := sys.Dlog.Len(); got < late.delivered {
		t.Fatalf("retained suffix holds %d records for %d live entries", got, late.delivered)
	}
	t.Logf("payload %d -> %d B while the window grew %d -> %d entries (full image %d -> %d B)",
		early.payload, late.payload, early.delivered, late.delivered, early.fullImage, late.fullImage)
}

// TestGrowthGaugesReadBack drives each growth gauge RegisterMetrics
// publishes and reads it back through the registry: the dedup maps grow
// with answered requests and shrink when the retention window prunes
// them, the retained suffix follows the live records, and the payload
// gauge reports the latest checkpoint's size.
func TestGrowthGaugesReadBack(t *testing.T) {
	r := newPrunedCheckpointRun(t, 5, 1)
	sys := r.sys.Single()
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)
	ns := sys.MetricsNamespace()
	names := []string{"coordinator.delivered", "coordinator.seen", "dlog.live_records", "dlog.checkpoint_bytes"}
	read := func() map[string]int64 {
		snap := reg.Snapshot()
		out := map[string]int64{}
		for _, n := range names {
			v, ok := snap[ns+n]
			if !ok {
				t.Fatalf("gauge %s%s not registered", ns, n)
			}
			out[n] = v
		}
		return out
	}
	c := sys.Coordinator()
	want := func() map[string]int64 {
		return map[string]int64{
			"coordinator.delivered": int64(len(c.delivered)),
			"coordinator.seen":      int64(len(c.seen)),
			"dlog.live_records":     int64(sys.Dlog.Len()),
			"dlog.checkpoint_bytes": int64(sys.Dlog.Stats().CheckpointBytes),
		}
	}
	r.cluster.Start()
	peak := map[string]int64{}
	for now := 10 * time.Millisecond; now <= 400*time.Millisecond; now += 10 * time.Millisecond {
		r.cluster.RunUntil(now)
		got := read()
		if w := want(); !reflect.DeepEqual(got, w) {
			t.Fatalf("at %s: gauges %v, want %v", now, got, w)
		}
		for n, v := range got {
			if v > peak[n] {
				peak[n] = v
			}
		}
	}
	final := read()
	for _, n := range names {
		if peak[n] == 0 {
			t.Fatalf("gauge %s never moved", n)
		}
	}
	for _, n := range []string{"coordinator.delivered", "coordinator.seen", "dlog.live_records"} {
		if final[n] >= peak[n] {
			t.Fatalf("gauge %s never came down after the window passed (final %d, peak %d)", n, final[n], peak[n])
		}
	}
}

// BenchmarkCoordinatorCheckpoint measures one checkpoint in steady
// state at 1x and 4x live entries: between checkpoints 64 responses are
// released and 64 expire, while the dedup window holds `live` entries.
// The suffix design's cost follows the 64, not the window; the
// full-image arm encodes the same state the way checkpoints used to and
// grows with it.
func BenchmarkCoordinatorCheckpoint(b *testing.B) {
	prog, err := compiler.Compile(bank)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	const perCheckpoint = 64
	for _, arm := range []string{"suffix", "full-image"} {
		for _, live := range []int{4096, 16384} {
			b.Run(fmt.Sprintf("%s/live=%d", arm, live), func(b *testing.B) {
				sys := New(sim.New(1), prog, DefaultConfig()).Single()
				c := sys.coord
				c.snapshotID = sys.Snapshots.BeginWithPending(0,
					map[string][]int64{sourceTopic: {1 << 62}}, nil, len(sys.workers))
				step := sys.cfg.DedupRetention / time.Duration(live/perCheckpoint)
				ids := sysapi.NewBuilder("cl-")
				now, pos := time.Duration(0), int64(0)
				release := func() {
					for i := 0; i < perCheckpoint; i++ {
						req := builderTransfer(ids, acct(0), acct(1), 1)
						ent := deliveredEntry{resp: sysapi.Response{Req: req.Req, Value: interp.IntV(1)}, at: now, pos: pos}
						pos++
						rec := encodeDeliveredRecord(req.Req, ent)
						lsn := sys.Dlog.Append(rec)
						c.delivered[req.Req] = ent
						c.released = append(c.released, releasedRef{lsn: lsn, id: req.Req})
					}
					now += step
				}
				for n := 0; n < live/perCheckpoint; n++ {
					release()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					release()
					b.StartTimer()
					if arm == "full-image" {
						_ = fullImageOf(c)
					}
					c.checkpoint(now)
				}
				b.StopTimer()
				if got := len(c.delivered); got < live-perCheckpoint || got > live+perCheckpoint {
					b.Fatalf("%d live entries, want about %d", got, live)
				}
			})
		}
	}
}
