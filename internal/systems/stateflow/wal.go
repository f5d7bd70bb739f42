// Typed durable-log records of the StateFlow coordinator. The coordinator
// writes its protocol-critical state — the coordination epoch and every
// released client response — to an append-only dlog. A checkpoint
// payload carries the small summary the records no longer cover (epoch,
// next TID, snapshot seal, dedup floors, held entries); every delivered
// entry still inside the dedup window keeps its own record in the
// retained log suffix. A restart rebuilds exactly the facts the
// exactly-once contract depends on from the payload plus that suffix.
package stateflow

import (
	"fmt"
	"sort"
	"time"

	"statefulentities.dev/stateflow/internal/dlog"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
	"statefulentities.dev/stateflow/internal/txn/aria"
)

// Record kinds of the coordinator WAL (dlog reserves kind 0).
const (
	// recKindEpoch logs an epoch advance. On the serial schedule (and for
	// recovery view changes) it is synced blocking before any message of
	// the new epoch is sent, so a restart recovers an epoch >= every
	// epoch the old incarnation ever spoke — what makes the view-change
	// stale-message guard sound. On the pipelined schedule the record
	// rides the previous epoch's group-commit sync instead; at most one
	// advance may be volatile at a time, and the restart path compensates
	// by over-bumping the recovered epoch by one.
	recKindEpoch dlog.Kind = 1
	// recKindDelivered logs one released client response (request id,
	// source-log position, release time, full response). Group-committed:
	// the response is sent only after the covering sync completes, so a
	// response a client saw is always recoverable — and replayable.
	recKindDelivered dlog.Kind = 2
)

// deliveredEntry is the durable egress state for one answered request:
// enough to suppress the recovery replay's duplicate and to re-serve the
// response to a retrying client whose copy was lost.
type deliveredEntry struct {
	resp sysapi.Response
	// at is the virtual release time (drives retention pruning).
	at time.Duration
	// pos is the request's source-log position: entries at or above the
	// latest complete snapshot's offset are never pruned, because a
	// recovery replay can still re-execute them.
	pos int64
}

// walCheckpoint is the compacted coordinator state a dlog checkpoint
// carries: everything the coordinator must remember that the retained
// log suffix no longer covers once the prefix below the retain bound is
// dropped. Delivered entries are NOT folded in: each one's
// delivered-record stays in the retained suffix for as long as the entry
// is live (the retain bound is the oldest live record), so a checkpoint
// costs O(entries released or pruned since the last one), not O(window).
type walCheckpoint struct {
	epoch   int64
	nextTID aria.TID
	// sealed is the id of the newest snapshot this checkpoint vouches
	// for: its images are complete AND every delivered-record its state
	// depends on is durable in this checkpoint or the retained suffix.
	// Recovery restores only sealed snapshots — a snapshot whose images
	// finished but whose seal never became durable is treated as if it
	// were never taken, which is what lets the snapshot path skip the
	// pre-image WAL force and ride the checkpoint's own sync instead.
	sealed int64
	// sealedCut is the virtual time of the sealed snapshot's aligned cut
	// (when its epoch staged its last response). Recovery compares each
	// delivered entry's release time against it to decide whether the
	// entry's effects are inside the restored images (released at or
	// before the cut) or must be rebuilt by the binding replay (released
	// after). Durable alongside sealed because the comparison must
	// survive a coordinator reboot.
	sealedCut time.Duration
	// floors carries the per-source incarnation dedup floors (highest
	// pruned sequence per request-id source): once a source's entries
	// are pruned from delivered, the floor is the only fact left that
	// keeps a very late duplicate from re-executing, so it must survive
	// restarts alongside the prune that raised it.
	floors map[string]int64
	// held are the delivered entries past the retention window that the
	// prune had to keep because a recovery replay can still re-execute
	// them (source position at or past the snapshot offset). Their
	// records fall below the retain bound, so the checkpoint carries
	// them itself. Few: an entry can only outlive the window ahead of a
	// snapshot offset while the cursor trails it — a global apply's
	// embedded responses while the backlog queued behind the fence
	// drains, or a recovery's rewound cursor.
	held []heldEntry
}

// heldEntry is one delivered entry a checkpoint carries by value.
type heldEntry struct {
	id  string
	ent deliveredEntry
}

func encodeEpochRecord(epoch int64) dlog.Record {
	e := interp.NewEncoder()
	e.Varint(epoch)
	return dlog.Record{Kind: recKindEpoch, Data: e.Bytes()}
}

func decodeEpochRecord(data []byte) (int64, error) {
	return interp.NewDecoder(data).Varint()
}

func appendDelivered(e *interp.Encoder, id string, ent deliveredEntry) {
	e.Str(id)
	e.Varint(ent.pos)
	e.Varint(int64(ent.at))
	e.Str(ent.resp.Req)
	e.Value(ent.resp.Value)
	e.Str(ent.resp.Err)
	e.Varint(int64(ent.resp.Retries))
}

func readDelivered(d *interp.Decoder) (string, deliveredEntry, error) {
	fail := func(err error) (string, deliveredEntry, error) {
		return "", deliveredEntry{}, fmt.Errorf("stateflow: delivered record: %w", err)
	}
	id, err := d.Str()
	if err != nil {
		return fail(err)
	}
	pos, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	at, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	req, err := d.Str()
	if err != nil {
		return fail(err)
	}
	val, err := d.Value()
	if err != nil {
		return fail(err)
	}
	errStr, err := d.Str()
	if err != nil {
		return fail(err)
	}
	retries, err := d.Varint()
	if err != nil {
		return fail(err)
	}
	return id, deliveredEntry{
		resp: sysapi.Response{Req: req, Value: val, Err: errStr, Retries: int(retries)},
		at:   time.Duration(at),
		pos:  pos,
	}, nil
}

func encodeDeliveredRecord(id string, ent deliveredEntry) dlog.Record {
	e := interp.NewEncoder()
	appendDelivered(e, id, ent)
	return dlog.Record{Kind: recKindDelivered, Data: e.Bytes()}
}

func decodeDeliveredRecord(data []byte) (string, deliveredEntry, error) {
	d := interp.NewDecoder(data)
	id, ent, err := readDelivered(d)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("stateflow: delivered record: %d trailing bytes", d.Remaining())
	}
	return id, ent, err
}

func encodeCheckpoint(c walCheckpoint) []byte {
	e := interp.NewEncoder()
	e.Varint(c.epoch)
	e.Varint(int64(c.nextTID))
	e.Varint(c.sealed)
	e.Varint(int64(c.sealedCut))
	e.Uvarint(uint64(len(c.floors)))
	// Sorted so same-run checkpoints are byte-identical; the map holds one
	// entry per request-id source, not per request.
	srcs := make([]string, 0, len(c.floors))
	for src := range c.floors {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		e.Str(src)
		e.Varint(c.floors[src])
	}
	e.Uvarint(uint64(len(c.held)))
	for _, h := range c.held {
		appendDelivered(e, h.id, h.ent)
	}
	return e.Bytes()
}

func decodeCheckpoint(data []byte) (walCheckpoint, error) {
	out := walCheckpoint{floors: map[string]int64{}}
	if len(data) == 0 {
		return out, nil
	}
	fail := func(err error) (walCheckpoint, error) {
		return walCheckpoint{floors: map[string]int64{}}, fmt.Errorf("stateflow: checkpoint: %w", err)
	}
	d := interp.NewDecoder(data)
	var head [4]int64
	for i := range head {
		v, err := d.Varint()
		if err != nil {
			return fail(err)
		}
		head[i] = v
	}
	out.epoch, out.nextTID, out.sealed = head[0], aria.TID(head[1]), head[2]
	out.sealedCut = time.Duration(head[3])
	nf, err := d.Uvarint()
	if err != nil {
		return fail(err)
	}
	for i := uint64(0); i < nf; i++ {
		src, err := d.Str()
		if err != nil {
			return fail(err)
		}
		floor, err := d.Varint()
		if err != nil {
			return fail(err)
		}
		out.floors[src] = floor
	}
	nh, err := d.Uvarint()
	if err != nil {
		return fail(err)
	}
	for i := uint64(0); i < nh; i++ {
		id, ent, err := readDelivered(d)
		if err != nil {
			return fail(err)
		}
		out.held = append(out.held, heldEntry{id: id, ent: ent})
	}
	if d.Remaining() != 0 {
		return fail(fmt.Errorf("%d trailing bytes", d.Remaining()))
	}
	return out, nil
}
