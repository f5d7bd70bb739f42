// Package aria implements the deterministic transaction protocol that
// StateFlow layers over the dataflow (§3): an extension of Aria (Lu et
// al., VLDB 2020). Root invocations are grouped into batches (epochs);
// every transaction in a batch executes optimistically against the state
// as of the batch start, buffering writes in a per-transaction workspace
// and recording read/write reservations. When the whole batch has
// finished executing, each worker validates its local reservations and
// the coordinator unions the votes into a deterministic global decision.
// Committed workspaces apply in TID order; aborted transactions are
// re-queued into the next batch.
//
// Reservations are recorded at (class-id, key, slot-bitmap) granularity:
// the reservation key interns the entity class as the compiler's dense
// class id, and the bitmap marks which attribute slots of the entity the
// transaction touched (plus a whole-entity bit for existence checks,
// creations, overflow slots and dynamically-added attributes). Two
// transactions that touch disjoint attributes of the same entity no
// longer conflict; committed writes apply slot-by-slot so disjoint
// updates merge instead of clobbering each other.
package aria

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/state"
)

// TID is a transaction identifier; batch order is TID order, which makes
// the commit decision deterministic (§3, "deterministic transaction
// protocol").
type TID int64

// ResKey identifies an entity inside a reservation set: the dense class
// id (interned per state store from the program's layouts) plus the
// partition key.
type ResKey struct {
	Class int32
	Key   string
}

// Bits is an attribute-slot bitmap. Bit i covers layout slot i for
// i < 63; EntityBit covers entity existence, creation, overflow slots
// (≥ 63) and attributes outside the class layout.
type Bits uint64

// EntityBit is the whole-entity reservation bit.
const EntityBit Bits = 1 << 63

// AllBits reserves the entire entity (creation, whole-row install).
const AllBits Bits = ^Bits(0)

// SlotBit maps a 0-based layout slot to its reservation bit.
func SlotBit(slot int) Bits {
	if slot < 0 || slot >= 63 {
		return EntityBit
	}
	return 1 << uint(slot)
}

// RWSet is a transaction's reservation set on one worker.
type RWSet struct {
	Reads  map[ResKey]Bits
	Writes map[ResKey]Bits
}

// NewRWSet returns an empty reservation set.
func NewRWSet() *RWSet {
	return &RWSet{Reads: map[ResKey]Bits{}, Writes: map[ResKey]Bits{}}
}

// Read records a read reservation.
func (rw *RWSet) Read(k ResKey, b Bits) { rw.Reads[k] |= b }

// Write records a write reservation.
func (rw *RWSet) Write(k ResKey, b Bits) { rw.Writes[k] |= b }

// Merge unions another set into this one.
func (rw *RWSet) Merge(o *RWSet) {
	for k, b := range o.Reads {
		rw.Reads[k] |= b
	}
	for k, b := range o.Writes {
		rw.Writes[k] |= b
	}
}

// wsEntry is the buffered working copy of one entity inside a workspace.
type wsEntry struct {
	row *interp.Row // copy-on-first-write working row
	// wroteBits marks written slots; EntityBit set means the whole row
	// must be installed on apply (created, overflow or extra attributes).
	wroteBits  Bits
	wroteExtra map[string]bool // written attributes outside the layout
	created    bool
}

// Workspace is the per-transaction optimistic execution context on one
// worker: reads hit the committed store (plus the transaction's own
// writes), writes buffer locally in row working copies, and reservations
// accumulate for validation.
type Workspace struct {
	TID       TID
	committed *state.Store
	writes    map[interp.EntityRef]*wsEntry
	RW        *RWSet
	classIDs  map[string]int32 // ResKey intern cache over the store's layouts
}

// NewWorkspace opens a workspace for tid over the committed store.
func NewWorkspace(tid TID, committed *state.Store) *Workspace {
	return &Workspace{
		TID:       tid,
		committed: committed,
		writes:    map[interp.EntityRef]*wsEntry{},
		RW:        NewRWSet(),
		classIDs:  map[string]int32{},
	}
}

// resKey interns the entity reference as a reservation key.
func (ws *Workspace) resKey(ref interp.EntityRef) ResKey {
	id, ok := ws.classIDs[ref.Class]
	if !ok {
		id = int32(ws.committed.ClassID(ref.Class))
		ws.classIDs[ref.Class] = id
	}
	return ResKey{Class: id, Key: ref.Key}
}

// entry returns the copy-on-first-write working row for ref, cloning the
// committed image on first touch.
func (ws *Workspace) entry(ref interp.EntityRef) *wsEntry {
	e, ok := ws.writes[ref]
	if !ok {
		var row *interp.Row
		if base, exists := ws.committed.Lookup(ref); exists {
			row = base.Clone()
		} else {
			row = ws.committed.NewRow(ref.Class)
		}
		e = &wsEntry{row: row}
		ws.writes[ref] = e
	}
	return e
}

// wsState is the interp.State view of one entity inside a workspace. It
// implements the slot fast path so slot-stamped attribute access records
// slot-granular reservations without name hashing.
type wsState struct {
	ws  *Workspace
	ref interp.EntityRef
	key ResKey
	// row is the committed image (nil if the entity does not exist); the
	// workspace's own working copy, when present, shadows it.
	row *interp.Row
}

func (s wsState) readRow() *interp.Row {
	if e, ok := s.ws.writes[s.ref]; ok {
		return e.row
	}
	return s.row
}

// Get implements interp.State: own writes first, then the committed
// image.
func (s wsState) Get(attr string) (interp.Value, bool) {
	r := s.readRow()
	if r == nil {
		s.ws.RW.Read(s.key, EntityBit)
		return interp.None, false
	}
	if slot, ok := r.Layout().SlotOf(attr); ok {
		s.ws.RW.Read(s.key, SlotBit(slot))
	} else {
		s.ws.RW.Read(s.key, EntityBit)
	}
	return r.Get(attr)
}

// Set implements interp.State: copy-on-first-write into the workspace.
func (s wsState) Set(attr string, v interp.Value) {
	e := s.ws.entry(s.ref)
	if slot, ok := e.row.Layout().SlotOf(attr); ok && slot < 63 {
		b := SlotBit(slot)
		s.ws.RW.Write(s.key, b)
		e.wroteBits |= b
	} else {
		// Off-layout or overflow attribute: Apply installs the whole
		// working row, so the reservation must cover every slot —
		// otherwise a lower-TID slot write would pass validation and
		// then be reverted by the row install.
		s.ws.RW.Write(s.key, AllBits)
		e.wroteBits |= EntityBit
		if !ok {
			if e.wroteExtra == nil {
				e.wroteExtra = map[string]bool{}
			}
			e.wroteExtra[attr] = true
		}
	}
	e.row.Set(attr, v)
}

// GetSlot implements interp.SlotState.
func (s wsState) GetSlot(slot int) (interp.Value, bool) {
	s.ws.RW.Read(s.key, SlotBit(slot))
	r := s.readRow()
	if r == nil {
		return interp.None, false
	}
	return r.GetSlot(slot)
}

// SetSlot implements interp.SlotState.
func (s wsState) SetSlot(slot int, v interp.Value) {
	e := s.ws.entry(s.ref)
	if slot < 63 {
		b := SlotBit(slot)
		s.ws.RW.Write(s.key, b)
		e.wroteBits |= b
	} else {
		// Overflow slot: whole-row install on apply (see Set).
		s.ws.RW.Write(s.key, AllBits)
		e.wroteBits |= EntityBit
	}
	e.row.SetSlot(slot, v)
}

// Lookup implements core.Store for the executor. Absence is an
// observation too: a lookup that misses still reserves the key, so a
// transaction that failed because an entity did not exist conflicts with
// a same-batch creation of it — without the phantom read its error would
// validate as definitive even though the serial order creates the entity
// first.
func (ws *Workspace) Lookup(ref interp.EntityRef) (interp.State, bool) {
	key := ws.resKey(ref)
	ws.RW.Read(key, EntityBit)
	if e, ok := ws.writes[ref]; ok {
		return wsState{ws: ws, ref: ref, key: key, row: e.row}, true
	}
	if base, exists := ws.committed.Lookup(ref); exists {
		return wsState{ws: ws, ref: ref, key: key, row: base}, true
	}
	return nil, false
}

// Create implements core.Store: new entities are buffered like writes.
func (ws *Workspace) Create(ref interp.EntityRef) (interp.State, error) {
	if ws.committed.Exists(ref) {
		return nil, fmt.Errorf("entity %s already exists", ref)
	}
	if e, ok := ws.writes[ref]; ok && e.created {
		return nil, fmt.Errorf("entity %s already exists", ref)
	}
	key := ws.resKey(ref)
	ws.RW.Write(key, AllBits)
	e := &wsEntry{row: ws.committed.NewRow(ref.Class), wroteBits: AllBits, created: true}
	ws.writes[ref] = e
	return wsState{ws: ws, ref: ref, key: key}, nil
}

// PutBlind installs a complete entity image as a blind write: the whole
// working row is replaced by st and Apply installs it wholesale, so the
// reservation covers every slot. Sharded runtimes use this to replay a
// globally-sequenced transaction's write-set into one shard without
// re-executing the method there.
func (ws *Workspace) PutBlind(ref interp.EntityRef, st interp.MapState) {
	ws.RW.Write(ws.resKey(ref), AllBits)
	row := interp.RowFromMap(ws.committed.Layouts().LayoutOf(ref.Class), st)
	e, ok := ws.writes[ref]
	if !ok {
		e = &wsEntry{}
		ws.writes[ref] = e
	}
	e.row = row
	e.wroteBits |= EntityBit
}

// Apply installs the workspace's buffered writes into the committed
// store. Whole-entity writes (creations, extra attributes) install the
// working row; plain attribute writes merge slot-by-slot so lower-TID
// writes to disjoint slots survive. Callers must apply committed
// workspaces in TID order.
func (ws *Workspace) Apply(dst *state.Store) {
	refs := make([]interp.EntityRef, 0, len(ws.writes))
	for ref := range ws.writes {
		refs = append(refs, ref)
	}
	sortRefs(refs)
	for _, ref := range refs {
		e := ws.writes[ref]
		base, exists := dst.Lookup(ref)
		if !exists || e.created || e.wroteBits&EntityBit != 0 {
			dst.Put(ref, e.row)
			continue
		}
		for slot := 0; slot < 63; slot++ {
			if e.wroteBits&(1<<uint(slot)) == 0 {
				continue
			}
			if v, ok := e.row.GetSlot(slot); ok {
				base.SetSlot(slot, v)
			}
		}
	}
}

// WriteBytes estimates the serialized size of the buffered writes (used
// by the worker cost model when applying a commit).
func (ws *Workspace) WriteBytes() int {
	total := 0
	for _, e := range ws.writes {
		total += e.row.EncodedSize()
	}
	return total
}

// TouchedEntities lists every entity in the reservation set, resolving
// class ids back through the committed store's layouts.
func (ws *Workspace) TouchedEntities() []interp.EntityRef {
	classes := map[int32]string{}
	for class, id := range ws.classIDs {
		classes[id] = class
	}
	seen := map[interp.EntityRef]bool{}
	add := func(k ResKey) {
		seen[interp.EntityRef{Class: classes[k.Class], Key: k.Key}] = true
	}
	for k := range ws.RW.Reads {
		add(k)
	}
	for k := range ws.RW.Writes {
		add(k)
	}
	out := make([]interp.EntityRef, 0, len(seen))
	for ref := range seen {
		out = append(out, ref)
	}
	sortRefs(out)
	return out
}

func sortRefs(refs []interp.EntityRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Class != refs[j].Class {
			return refs[i].Class < refs[j].Class
		}
		return refs[i].Key < refs[j].Key
	})
}

// Validate runs Aria's deterministic conflict check over one worker's
// local reservations. order is the batch's TID order; sets holds the
// local reservation set of each transaction that touched this worker. A
// transaction aborts if any slot it read or wrote was written by a
// lower-TID transaction in the batch — the WAW and RAW rules of Aria
// (reads observe the batch-start snapshot, so WAR never aborts). The
// check deliberately counts reservations of transactions that themselves
// abort (Aria's conservative one-pass rule), keeping validation
// embarrassingly parallel across workers.
func Validate(order []TID, sets map[TID]*RWSet) []TID {
	earlier := map[ResKey]Bits{}
	var aborts []TID
	for _, tid := range order {
		rw, ok := sets[tid]
		if !ok {
			continue
		}
		conflicted := false
		for k, b := range rw.Writes {
			if earlier[k]&b != 0 {
				conflicted = true
				break
			}
		}
		if !conflicted {
			for k, b := range rw.Reads {
				if earlier[k]&b != 0 {
					conflicted = true
					break
				}
			}
		}
		if conflicted {
			aborts = append(aborts, tid)
		}
		for k, b := range rw.Writes {
			earlier[k] |= b
		}
	}
	return aborts
}

// Schedule is the fallback phase's deterministic plan for a batch's
// conflict-aborted transactions: which of them commit via deterministic
// re-execution and in what order.
type Schedule struct {
	// Commit lists every fallback-scheduled transaction in its
	// deterministic apply order (the concatenation of Rounds).
	Commit []TID
	// Rounds partitions Commit into re-execution rounds. Members of one
	// round have pairwise-disjoint reservation footprints, so they may
	// re-execute concurrently; a transaction lands in the round after the
	// last lower-TID aborted transaction it conflicts with, which
	// preserves the batch's TID serial order along every conflict chain.
	Rounds [][]TID
}

// Fallback computes Aria's deterministic fallback schedule: the second
// validation pass that rescues conflict-aborted transactions instead of
// kicking them into the next batch. It layers the aborted transactions
// into re-execution rounds: a transaction whose conflicts are all with
// earlier rounds (or with standard-committed transactions, which apply
// before any fallback round) is reorderable — it re-executes against the
// then-current committed state and commits in its round. Every conflict
// edge (RAW, WAW, WAR) between two aborted transactions orders the higher
// TID after the lower, so the resulting serial order is exactly the one
// the legacy retry path would have produced across one batch per round —
// a pure conflict chain drains in one batch instead of one commit per
// batch.
//
// A transaction's round is one past the latest round of any lower-TID
// aborted transaction it conflicts with. Rather than testing every pair,
// the pass walks the aborted transactions in TID order over a per-key,
// per-bit index of the latest round that has written each reservation bit
// and the latest that has touched (read or written) it — Aria's
// last-writer/last-reader dependency analysis (Lu et al., §4). The bits a
// transaction reads look up the writers, the bits it writes look up the
// touchers, and its own footprint then raises both. The cost is
// O(Σ footprint × bits per key) instead of O(aborted² × footprint).
//
// The schedule is a pure function of (order, sets): every node computing
// it from the same global reservation sets reaches the same plan.
func Fallback(order []TID, sets map[TID]*RWSet) Schedule {
	aborted := Validate(order, sets)
	var sched Schedule
	latest := conflictIndex[int]{keepMax: true}
	for _, tid := range aborted {
		rw := sets[tid]
		r := 0
		if last, ok := latest.against(rw); ok {
			r = last + 1
		}
		latest.add(rw, r)
		for len(sched.Rounds) <= r {
			sched.Rounds = append(sched.Rounds, nil)
		}
		sched.Rounds[r] = append(sched.Rounds[r], tid)
	}
	for _, members := range sched.Rounds {
		sched.Commit = append(sched.Commit, members...)
	}
	return sched
}

// DriftIndex answers the fallback drift check: does a not-yet-committed
// (pending) transaction with a lower TID hold a footprint that conflicts
// with a round member's observed one? It keeps, per reservation key and
// bit, the lowest pending TID that writes the bit and the lowest that
// touches it, so each check costs O(footprint) rather than a scan of the
// pending set. The zero value is ready to use; Reset empties it while
// keeping its storage for the next round.
type DriftIndex struct {
	lowest conflictIndex[TID]
}

// Reset empties the index, retaining its allocations.
func (d *DriftIndex) Reset() { d.lowest.reset() }

// Add marks tid, with footprint fp, as pending.
func (d *DriftIndex) Add(tid TID, fp *RWSet) { d.lowest.add(fp, tid) }

// ConflictsBelow reports whether some pending transaction with a TID
// below tid conflicts (WAW, RAW or WAR) with footprint rw.
func (d *DriftIndex) ConflictsBelow(tid TID, rw *RWSet) bool {
	lowest, ok := d.lowest.against(rw)
	return ok && lowest < tid
}

// conflictIndex folds one value per footprint into every reservation bit
// the footprint reserves, keeping the largest (keepMax) or smallest value
// per bit, separately for the bits written and the bits touched (read or
// written). against then finds the extreme value among the footprints a
// new set conflicts with: writers of the bits it reads, touchers of the
// bits it writes — read/read overlap never conflicts.
type conflictIndex[V cmp.Ordered] struct {
	keepMax bool
	keys    map[ResKey]int // → rows
	rows    []conflictRow[V]
}

// conflictRow holds one reservation key's values.
type conflictRow[V cmp.Ordered] struct {
	writers, touchers bitValues[V]
}

// reset empties the index; the rows keep their storage for reuse.
func (x *conflictIndex[V]) reset() {
	clear(x.keys)
	for i := range x.rows {
		x.rows[i].writers.clear()
		x.rows[i].touchers.clear()
	}
	x.rows = x.rows[:0]
}

// better reports whether a should replace b as a bit's value: the larger
// one when keepMax, else the smaller.
func better[V cmp.Ordered](keepMax bool, a, b V) bool {
	if keepMax {
		return a > b
	}
	return a < b
}

// row returns k's row, creating it (over reused storage) when absent.
func (x *conflictIndex[V]) row(k ResKey) *conflictRow[V] {
	if i, ok := x.keys[k]; ok {
		return &x.rows[i]
	}
	if x.keys == nil {
		x.keys = map[ResKey]int{}
	}
	n := len(x.rows)
	x.keys[k] = n
	x.rows = slices.Grow(x.rows, 1)[:n+1]
	return &x.rows[n]
}

// add folds v into fp's footprint.
func (x *conflictIndex[V]) add(fp *RWSet, v V) {
	for k, b := range fp.Writes {
		r := x.row(k)
		r.writers.fold(b, v, x.keepMax)
		r.touchers.fold(b, v, x.keepMax)
	}
	for k, b := range fp.Reads {
		x.row(k).touchers.fold(b, v, x.keepMax)
	}
}

// against returns the extreme value among the footprints rw conflicts
// with, and whether there is any.
func (x *conflictIndex[V]) against(rw *RWSet) (best V, found bool) {
	look := func(bv *bitValues[V], b Bits) {
		if v, ok := bv.pick(b, x.keepMax); ok && (!found || better(x.keepMax, v, best)) {
			best, found = v, true
		}
	}
	for k, b := range rw.Reads {
		if i, ok := x.keys[k]; ok {
			look(&x.rows[i].writers, b)
		}
	}
	for k, b := range rw.Writes {
		if i, ok := x.keys[k]; ok {
			look(&x.rows[i].touchers, b)
		}
	}
	return best, found
}

// bitValues holds one value per reservation bit, densely for the bits
// that have one: vals[i] belongs to the i-th lowest set bit of bits. A
// footprint of a slot or two per key costs a word or two, not a 64-entry
// array.
type bitValues[V cmp.Ordered] struct {
	bits Bits
	vals []V
}

func (bv *bitValues[V]) clear() {
	bv.bits = 0
	bv.vals = bv.vals[:0]
}

// rank is the index into vals of bit i.
func (bv *bitValues[V]) rank(i int) int {
	return bits.OnesCount64(uint64(bv.bits) & (1<<uint(i) - 1))
}

// fold merges v into every bit of b: a bit without a value takes v, one
// with a value keeps the better of the two.
func (bv *bitValues[V]) fold(b Bits, v V, keepMax bool) {
	for b != 0 {
		i := bits.TrailingZeros64(uint64(b))
		b &= b - 1
		at := bv.rank(i)
		if bv.bits&(1<<uint(i)) == 0 {
			bv.bits |= 1 << uint(i)
			bv.vals = slices.Insert(bv.vals, at, v)
		} else if better(keepMax, v, bv.vals[at]) {
			bv.vals[at] = v
		}
	}
}

// pick returns the best value held by a bit of b, and whether any bit of
// b holds one.
func (bv *bitValues[V]) pick(b Bits, keepMax bool) (best V, found bool) {
	b &= bv.bits
	for b != 0 {
		i := bits.TrailingZeros64(uint64(b))
		b &= b - 1
		if v := bv.vals[bv.rank(i)]; !found || better(keepMax, v, best) {
			best, found = v, true
		}
	}
	return best, found
}

// Interface checks.
var (
	_ core.Store       = (*Workspace)(nil)
	_ interp.SlotState = wsState{}
)
