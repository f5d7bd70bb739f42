// Package dlog implements the durable append-only log that gives the
// StateFlow coordinator (and the Live runtime's response journal) a
// crash-survivable memory. Its write contract follows what modern
// append-optimized storage rewards: strictly sequential typed records,
// explicit sync points (group commit), and checkpoint-based compaction
// that drops a prefix of the log instead of updating in place.
//
// A checkpoint is a compacted summary plus the suffix of records it does
// not subsume. The owner names that suffix by a retain bound — the LSN
// of its oldest still-live record — so records that stay live across
// many checkpoints (e.g. the coordinator's delivered-records inside the
// dedup window) are written once and never re-encoded into summaries.
//
// Two implementations share one record model:
//
//   - SimLog is the deterministic in-simulation backing store. It is
//     virtual-time aware: records appended but not yet covered by a
//     completed sync when the owning component crashes are lost — the
//     first of them is kept as a *torn tail* that recovery must detect
//     and discard, never replay. Everything a completed sync covered
//     survives the crash, exactly like a real device behind fsync. Its
//     checkpoints keep the retained suffix; everything below the retain
//     bound is dropped.
//
//   - FileLog is the real thing for the Live runtime: CRC-framed records
//     in an append-only file, torn tails detected (and truncated) on
//     open, checkpoints compacted by atomic rewrite-and-rename to the
//     checkpoint record alone (the journal folds what it keeps into the
//     payload).
//
// Record kinds are owned by the subsystem writing the log (the dlog layer
// reserves kind 0 for its own checkpoint records); payloads are opaque
// bytes.
package dlog

// Kind tags a record's type. Kind 0 is reserved for the log's own
// checkpoint records; applications use kinds >= 1.
type Kind uint8

// KindCheckpoint marks a checkpoint record: its payload is the compacted
// state summary that, together with the records the checkpoint retained,
// subsumes every record before it.
const KindCheckpoint Kind = 0

// Record is one typed log entry. At is the owner-stamped write time in
// nanoseconds — virtual time for simulated owners, wall-clock time for
// the Live runtime — carried in the durable framing so checkpoint
// policies can retain records by age (e.g. pruning a response journal to
// a retention window) without decoding owner payloads. 0 means unstamped
// (records framed before the stamp existed decode as 0).
//
// LSN is the record's log sequence number in a SimLog recovery image: the
// log assigns it (Append ignores the field); FileLog leaves it 0.
type Record struct {
	Kind Kind
	At   int64
	LSN  int64
	Data []byte
}

// Recovered is the durable image a log yields after a crash: the latest
// durable checkpoint payload (nil when none was ever written) plus the
// durable records it retained or that were appended after it, in order.
// Torn reports whether a torn tail — an append a crash interrupted
// before its sync completed — was detected and discarded during
// recovery.
//
// FirstLSN is the LSN of the first retained record (SimLog only; the
// next LSN to be assigned when no record is retained). LSNs increase
// along Records but are not contiguous: the records a crash lost keep
// their numbers, so each record carries its own LSN.
type Recovered struct {
	Checkpoint []byte
	Records    []Record
	FirstLSN   int64
	Torn       bool
}

// Stats counts log activity, for observability and tests.
type Stats struct {
	// Appends counts appended records; AppendedBytes their payload bytes.
	Appends       int
	AppendedBytes int
	// Syncs counts sync points (SyncNow + SyncAt on SimLog, Sync on
	// FileLog).
	Syncs int
	// Checkpoints counts checkpoint writes; Compacted the records a
	// checkpoint dropped from the live suffix; CheckpointBytes is the
	// size of the latest checkpoint payload.
	Checkpoints     int
	Compacted       int
	CheckpointBytes int
	// TornTails counts torn tail records detected (and discarded) across
	// crashes; LostRecords counts fully lost (never even torn) volatile
	// records behind a torn tail.
	TornTails   int
	LostRecords int
}
