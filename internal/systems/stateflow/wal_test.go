package stateflow

import (
	"bytes"
	"testing"
	"time"

	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// walSeedEntries are representative delivered entries for the codec
// tests (the fuzz targets' seed corpora under testdata/fuzz encode them
// too).
func walSeedEntries() []heldEntry {
	return []heldEntry{
		{"cl-1.7", deliveredEntry{resp: sysapi.Response{Req: "cl-1.7", Value: interp.IntV(42), Retries: 2},
			at: 1500 * time.Microsecond, pos: 7}},
		{"t3", deliveredEntry{resp: sysapi.Response{Req: "t3", Err: "insufficient funds"}, at: time.Second, pos: 3}},
		{"q-2.9", deliveredEntry{resp: sysapi.Response{Req: "q-2.9",
			Value: interp.ListV(interp.StrV("v"), interp.FloatV(0.5), interp.RefV("Account", "a1"), interp.BoolV(true))},
			at: -1, pos: 1 << 40}},
	}
}

// FuzzDecodeDeliveredRecord: the delivered-record decoder, which a
// coordinator restart runs over every retained record, is total — any
// input yields an entry or an error, never a panic — and what it
// decodes re-encodes canonically: decoding the re-encoding succeeds and
// encodes to the same bytes. Seeds: testdata/fuzz/FuzzDecodeDeliveredRecord.
func FuzzDecodeDeliveredRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		id, ent, err := decodeDeliveredRecord(data)
		if err != nil {
			return
		}
		canon := encodeDeliveredRecord(id, ent).Data
		id2, ent2, err := decodeDeliveredRecord(canon)
		if err != nil {
			t.Fatalf("re-encoding of a decoded record does not decode: %v", err)
		}
		if again := encodeDeliveredRecord(id2, ent2).Data; !bytes.Equal(again, canon) {
			t.Fatalf("encode(decode(x)) is not a fixed point:\n%x\n%x", canon, again)
		}
	})
}

// FuzzDecodeCheckpoint: the same properties for the checkpoint payload
// a restart decodes first. Seeds: testdata/fuzz/FuzzDecodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		canon := encodeCheckpoint(ck)
		ck2, err := decodeCheckpoint(canon)
		if err != nil {
			t.Fatalf("re-encoding of a decoded checkpoint does not decode: %v", err)
		}
		if again := encodeCheckpoint(ck2); !bytes.Equal(again, canon) {
			t.Fatalf("encode(decode(x)) is not a fixed point:\n%x\n%x", canon, again)
		}
	})
}

// TestWALCodecRoundTrip pins encode∘decode as the identity on the
// structures themselves, and that truncations and trailing bytes are
// rejected rather than half-decoded.
func TestWALCodecRoundTrip(t *testing.T) {
	ck := walCheckpoint{epoch: 9, nextTID: 77, sealed: 4, sealedCut: -1,
		floors: map[string]int64{"cl-1": 5}, held: walSeedEntries()}
	data := encodeCheckpoint(ck)
	got, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.epoch != ck.epoch || got.nextTID != ck.nextTID || got.sealed != ck.sealed ||
		got.sealedCut != ck.sealedCut || len(got.floors) != 1 || got.floors["cl-1"] != 5 ||
		len(got.held) != len(ck.held) {
		t.Fatalf("checkpoint round trip: %+v, want %+v", got, ck)
	}
	for i, h := range got.held {
		if h.id != ck.held[i].id || !bytes.Equal(encodeDeliveredRecord(h.id, h.ent).Data,
			encodeDeliveredRecord(ck.held[i].id, ck.held[i].ent).Data) {
			t.Fatalf("held entry %d: %+v, want %+v", i, h, ck.held[i])
		}
	}
	for cut := 1; cut < len(data); cut++ {
		if _, err := decodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("checkpoint truncated to %d/%d bytes decoded without error", cut, len(data))
		}
	}
	if _, err := decodeCheckpoint(append(data, 0)); err == nil {
		t.Fatal("checkpoint with a trailing byte decoded without error")
	}
	for _, h := range walSeedEntries() {
		rec := encodeDeliveredRecord(h.id, h.ent).Data
		id, ent, err := decodeDeliveredRecord(rec)
		if err != nil || id != h.id || !bytes.Equal(encodeDeliveredRecord(id, ent).Data, rec) {
			t.Fatalf("delivered record %s: %q %+v %v", h.id, id, ent, err)
		}
		if _, _, err := decodeDeliveredRecord(append(rec, 1)); err == nil {
			t.Fatalf("delivered record %s with a trailing byte decoded without error", h.id)
		}
	}
}
