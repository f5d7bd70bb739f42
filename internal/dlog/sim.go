package dlog

import (
	"math"
	"time"
)

// SimLog is the deterministic in-simulation durable log. It lives outside
// the simulated component that writes it (like the snapshot store and the
// replayable source, it models an attached durable device), so its
// contents survive a sim.Cluster crash of the owner — with one crucial
// exception that models real storage: appends not yet covered by a
// completed sync when the crash lands do not survive. The first of them
// becomes a torn tail (present on the medium but detectably incomplete;
// recovery discards it), the rest are lost outright.
//
// Durability is driven by explicit sync points:
//
//   - SyncNow(now) models a blocking fsync: everything appended so far is
//     durable at now (the caller charges the CPU stall).
//   - SyncAt(completes) models group commit: everything appended so far
//     becomes durable when the virtual clock reaches completes — the
//     caller schedules its continuation (e.g. releasing responses) at
//     that instant and must treat the records as volatile until then.
//
// Compaction keeps a suffix: Checkpoint(payload, retain) installs a new
// base and drops only the records whose LSN is below retain — the owner's
// oldest still-live record — so a checkpoint costs O(records dropped),
// not O(records retained).
//
// Crash(at) applies the device's crash contract at a virtual instant; the
// owner wires it to the cluster's crash hook. Recover(now) returns the
// durable image. All methods are single-threaded, like the simulator.
type SimLog struct {
	base    []byte // latest durable checkpoint payload
	hasBase bool

	// The retained records, compactly: recs[head:] are live, in LSN
	// order, and record i's payload is data[start(i):recs[i].end]. The
	// dropped prefix (recs[:head] and the bytes before start(head)) is
	// reclaimed once it outweighs the live part, so dropping is O(1)
	// amortized per record.
	recs []simRec
	head int
	data []byte

	// durable is the LSN up to which every record survives any crash (a
	// checkpoint or a crash settles it). syncs are the sync groups issued
	// since, oldest first, with both fields strictly increasing: the
	// records with LSN in (syncs[i-1].upTo, syncs[i].upTo] are durable
	// from syncs[i].at on; records above the last upTo are volatile. A
	// sync pops the groups it completes no later than and pushes one, so
	// sync and crash cost O(groups touched), never O(records retained).
	durable int64
	syncs   []syncGroup

	// nextLSN numbers appends monotonically across the log's whole life —
	// checkpoints and crashes drop records but never reuse their LSNs, so
	// a caller can order its own bookkeeping against sync completions.
	nextLSN int64
	stats   Stats
}

type simRec struct {
	lsn  int64
	at   int64
	end  uint32 // end offset of the payload in SimLog.data
	kind Kind
}

type syncGroup struct {
	upTo int64
	at   time.Duration
}

// NewSimLog returns an empty simulated durable log.
func NewSimLog() *SimLog { return &SimLog{} }

// start returns the offset of record i's payload in l.data.
func (l *SimLog) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(l.recs[i-1].end)
}

// Append adds a record to the volatile tail and returns its LSN
// (monotonic across checkpoints and crashes). The record is NOT durable
// until a subsequent sync point completes. rec.LSN is ignored.
func (l *SimLog) Append(rec Record) int64 {
	l.nextLSN++
	l.data = append(l.data, rec.Data...)
	l.recs = append(l.recs, simRec{lsn: l.nextLSN, at: rec.At, end: uint32(len(l.data)), kind: rec.Kind})
	l.stats.Appends++
	l.stats.AppendedBytes += len(rec.Data)
	return l.nextLSN
}

// SyncNow makes every appended record durable at now (blocking fsync).
func (l *SimLog) SyncNow(now time.Duration) { l.sync(now) }

// SyncAt issues a group-commit sync completing at the given virtual time
// and returns the LSN of the last record it covers. Records covered by
// the sync become durable only if the owner survives past completes.
func (l *SimLog) SyncAt(completes time.Duration) int64 {
	l.sync(completes)
	return l.nextLSN
}

// sync covers every record appended so far with a sync completing at at.
// A record's durable instant is the earliest completion among the syncs
// covering it, so the groups completing at or after at collapse into the
// new one.
func (l *SimLog) sync(at time.Duration) {
	l.stats.Syncs++
	n := len(l.syncs)
	for n > 0 && l.syncs[n-1].at >= at {
		n--
	}
	l.syncs = l.syncs[:n]
	covered := l.durable
	if n > 0 {
		covered = l.syncs[n-1].upTo
	}
	if covered < l.nextLSN {
		l.syncs = append(l.syncs, syncGroup{upTo: l.nextLSN, at: at})
	}
}

// RetainNone is the Checkpoint retain bound that drops every record.
const RetainNone int64 = math.MaxInt64

// Checkpoint atomically installs a checkpoint payload as the new durable
// base and compacts the log to the suffix the owner still needs: records
// with LSN below retain are dropped, the rest are kept (retain may exceed
// the newest LSN: everything is dropped). The checkpoint's own sync
// covers the retained suffix: it becomes durable together with the
// payload, so every record left in the log survives any later crash —
// the payload may depend on them (e.g. a snapshot seal on the
// delivered-records of the snapshot's epoch). The caller invokes it from
// a single handler (and charges the sync cost), which is what makes
// atomicity honest in the simulation; the byte-level torn-checkpoint
// cases are exercised by the file-backed implementation.
func (l *SimLog) Checkpoint(payload []byte, retain int64) {
	l.base = append(l.base[:0], payload...)
	l.hasBase = true
	l.stats.Checkpoints++
	l.stats.CheckpointBytes = len(payload)
	l.stats.Syncs++
	l.durable, l.syncs = l.nextLSN, l.syncs[:0]
	for l.head < len(l.recs) && l.recs[l.head].lsn < retain {
		l.head++
		l.stats.Compacted++
	}
	if l.head == len(l.recs) {
		l.recs, l.data, l.head = l.recs[:0], l.data[:0], 0
	} else if l.head > len(l.recs)-l.head {
		cut := l.start(l.head)
		l.data = l.data[:copy(l.data, l.data[cut:])]
		l.recs = l.recs[:copy(l.recs, l.recs[l.head:])]
		for i := range l.recs {
			l.recs[i].end -= uint32(cut)
		}
		l.head = 0
	}
}

// Crash applies the device crash contract at virtual time at: records
// whose covering sync completed by then survive; the first record still
// in flight becomes a torn tail (detected and discarded — it never
// reappears in Recover), the rest are lost.
func (l *SimLog) Crash(at time.Duration) {
	for n := len(l.syncs); n > 0; n-- {
		if l.syncs[n-1].at <= at {
			l.durable = l.syncs[n-1].upTo
			break
		}
	}
	// Groups completing after the crash never complete.
	l.syncs = l.syncs[:0]
	keep := len(l.recs)
	for keep > l.head && l.recs[keep-1].lsn > l.durable {
		keep--
	}
	if keep == len(l.recs) {
		return
	}
	l.stats.TornTails++
	l.stats.LostRecords += len(l.recs) - keep - 1
	l.data = l.data[:l.start(keep)]
	l.recs = l.recs[:keep]
}

// Recover returns the durable image at now: the latest checkpoint payload
// plus the durable records after it, each stamped with its LSN. Any
// append whose sync has not completed by now is treated exactly like a
// crash at now would treat it (first torn, rest lost) — recovering is
// indistinguishable from power loss. Torn reports whether this log ever
// discarded a torn tail.
func (l *SimLog) Recover(now time.Duration) Recovered {
	l.Crash(now)
	out := Recovered{Torn: l.stats.TornTails > 0, FirstLSN: l.nextLSN + 1}
	if l.hasBase {
		out.Checkpoint = append([]byte(nil), l.base...)
	}
	live := l.recs[l.head:]
	if len(live) == 0 {
		return out
	}
	out.FirstLSN = live[0].lsn
	// One copy of the payload bytes backs every returned record.
	from := l.start(l.head)
	data := append([]byte(nil), l.data[from:]...)
	out.Records = make([]Record, len(live))
	for i, r := range live {
		s := l.start(l.head+i) - from
		e := int(r.end) - from
		out.Records[i] = Record{Kind: r.kind, At: r.at, LSN: r.lsn, Data: data[s:e:e]}
	}
	return out
}

// Len reports the number of live (retained) records, durable or
// volatile.
func (l *SimLog) Len() int { return len(l.recs) - l.head }

// Stats returns a copy of the activity counters.
func (l *SimLog) Stats() Stats { return l.stats }
