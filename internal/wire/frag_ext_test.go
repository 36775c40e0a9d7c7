package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestFragExtensionRoundTrip(t *testing.T) {
	for _, flags := range []byte{FlagFrag, FlagTrace | FlagFrag} {
		f := Frame{
			Type: TypeRSR, Flags: flags,
			DestContext: 4, DestEndpoint: 5, SrcContext: 6,
			Ext: Ext{Trace: [16]byte{0xCA, 0xFE},
				FragID: 0xDEADBEEF01020304, FragIndex: 7, FragTotal: 9},
			Handler: "bulk", Payload: []byte("chunk-bytes"),
		}
		enc := f.Encode()
		if enc[1] != versionExt {
			t.Fatalf("flags %#x: encoded as version %d, want %d", flags, enc[1], versionExt)
		}
		if len(enc) != f.EncodedLen() {
			t.Fatalf("flags %#x: EncodedLen %d != len(Encode()) %d", flags, f.EncodedLen(), len(enc))
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("flags %#x: decoding fragment frame: %v", flags, err)
		}
		if !got.HasFrag() || got.FragID != f.FragID || got.FragIndex != 7 || got.FragTotal != 9 {
			t.Errorf("flags %#x: fragment extension did not round-trip: id=%#x idx=%d total=%d",
				flags, got.FragID, got.FragIndex, got.FragTotal)
		}
		if got.Handler != "bulk" || string(got.Payload) != "chunk-bytes" {
			t.Errorf("flags %#x: fragment frame decoded wrong: %+v", flags, got)
		}
		if flags&FlagTrace != 0 {
			if !got.HasTrace() || got.Trace != f.Trace {
				t.Errorf("trace did not survive alongside fragment ext: %x", got.Trace)
			}
		} else if got.HasTrace() || got.Trace != [16]byte{} {
			t.Errorf("frag-only frame decoded with trace: %x", got.Trace)
		}
	}
}

// TestFragExtensionLayout pins the on-wire position of the fragment fields:
// after the trace extension when both are present (flag-bit order), before
// the handler name.
func TestFragExtensionLayout(t *testing.T) {
	f := Frame{Type: TypeRSR, Flags: FlagTrace | FlagFrag,
		Ext: Ext{Trace: [16]byte{1}, FragID: 2, FragIndex: 0, FragTotal: 3}, Handler: "h"}
	enc := f.Encode()
	off := headerFixed + 1 + traceExtLen
	if id := binary.BigEndian.Uint64(enc[off:]); id != 2 {
		t.Errorf("FragID at offset %d = %d, want 2", off, id)
	}
	if total := binary.BigEndian.Uint32(enc[off+12:]); total != 3 {
		t.Errorf("FragTotal at offset %d = %d, want 3", off+12, total)
	}
}

func TestDecodeRejectsBadFrag(t *testing.T) {
	good := (&Frame{Type: TypeRSR, Flags: FlagFrag,
		Ext: Ext{FragID: 1, FragIndex: 0, FragTotal: 2}, Handler: "h"}).Encode()
	fragOff := headerFixed + 1

	zeroTotal := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(zeroTotal[fragOff+12:], 0)
	if _, err := Decode(zeroTotal); !errors.Is(err, ErrBadFrag) {
		t.Errorf("total=0: err = %v, want ErrBadFrag", err)
	}

	outOfRange := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(outOfRange[fragOff+8:], 2) // index == total
	if _, err := Decode(outOfRange); !errors.Is(err, ErrBadFrag) {
		t.Errorf("index==total: err = %v, want ErrBadFrag", err)
	}
}

func TestDecodeTruncatedFragExtension(t *testing.T) {
	enc := (&Frame{Type: TypeRSR, Flags: FlagFrag,
		Ext: Ext{FragID: 1, FragTotal: 2}, Handler: "handler", Payload: []byte{1}}).Encode()
	cut := enc[:headerFixed+1+6] // inside the fragment extension
	if _, err := Decode(cut); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated frag ext: err = %v, want ErrShortFrame", err)
	}
}

// TestPatchDestFragFrame checks in-place re-addressing does not disturb the
// fragment extension (the dest words sit before it in both layouts).
func TestPatchDestFragFrame(t *testing.T) {
	f := Frame{Type: TypeRSR, Flags: FlagTrace | FlagFrag,
		DestContext: 1, DestEndpoint: 2, SrcContext: 3,
		Ext:     Ext{Trace: [16]byte{5}, FragID: 11, FragIndex: 1, FragTotal: 4},
		Handler: "h", Payload: []byte{9}}
	enc := f.Encode()
	PatchDest(enc, 77, 88)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding patched fragment frame: %v", err)
	}
	if got.DestContext != 77 || got.DestEndpoint != 88 {
		t.Errorf("PatchDest gave (%d, %d), want (77, 88)", got.DestContext, got.DestEndpoint)
	}
	if got.FragID != 11 || got.FragIndex != 1 || got.FragTotal != 4 || got.Trace != f.Trace {
		t.Errorf("PatchDest disturbed extensions: %+v", got)
	}
}
