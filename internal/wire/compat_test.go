package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// encodeV1ByHand builds a frame exactly as the pre-extension encoder did,
// without going through any current encode path: this is the byte stream an
// old sender puts on the wire.
func encodeV1ByHand(typ byte, destCtx, destEP, srcCtx uint64, handler string, payload []byte) []byte {
	out := make([]byte, 0, 64)
	out = append(out, 'N', 1, typ)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], destCtx)
	out = append(out, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], destEP)
	out = append(out, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], srcCtx)
	out = append(out, u64[:]...)
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(handler)))
	out = append(out, u16[:]...)
	out = append(out, handler...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(payload)))
	out = append(out, u32[:]...)
	return append(out, payload...)
}

// TestV1BackwardCompat pins the compatibility contract: a frame produced by
// the old (pre-extension) encoder decodes identically under the new decoder,
// and re-encodes to the very same bytes.
func TestV1BackwardCompat(t *testing.T) {
	old := encodeV1ByHand(TypeRSR, 7, 42, 3, "compute", []byte("payload-bytes"))
	f, err := Decode(old)
	if err != nil {
		t.Fatalf("new decoder rejected v1 frame: %v", err)
	}
	if f.Type != TypeRSR || f.DestContext != 7 || f.DestEndpoint != 42 ||
		f.SrcContext != 3 || f.Handler != "compute" || string(f.Payload) != "payload-bytes" {
		t.Errorf("v1 frame decoded wrong: %+v", f)
	}
	if f.Flags != 0 {
		t.Errorf("v1 frame decoded with flags %#x, want 0", f.Flags)
	}
	if f.HasTrace() || f.Trace != [16]byte{} {
		t.Errorf("v1 frame decoded with trace %x", f.Trace)
	}
	if re := f.Encode(); !bytes.Equal(re, old) {
		t.Errorf("v1 frame does not re-encode byte-identically:\n old % x\n new % x", old, re)
	}
	// And the new encoder, asked for no extensions, emits those same bytes.
	nf := Frame{Type: TypeRSR, DestContext: 7, DestEndpoint: 42, SrcContext: 3,
		Handler: "compute", Payload: []byte("payload-bytes")}
	if got := nf.Encode(); !bytes.Equal(got, old) {
		t.Errorf("flagless new-encoder frame differs from old encoder:\n old % x\n new % x", old, got)
	}
}

func TestTraceExtensionRoundTrip(t *testing.T) {
	trace := [16]byte{0xde, 0xad, 0xbe, 0xef, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	f := Frame{
		Type: TypeRSR, Flags: FlagTrace,
		DestContext: 1, DestEndpoint: 2, SrcContext: 3,
		Ext: Ext{Trace: trace}, Handler: "h", Payload: []byte{0xAA},
	}
	enc := f.Encode()
	if enc[1] != versionExt {
		t.Fatalf("traced frame encoded as version %d, want %d", enc[1], versionExt)
	}
	if len(enc) != f.EncodedLen() {
		t.Fatalf("EncodedLen %d != len(Encode()) %d", f.EncodedLen(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding traced frame: %v", err)
	}
	if !got.HasTrace() || got.Trace != trace {
		t.Errorf("trace did not round-trip: %x", got.Trace)
	}
	if got.Handler != "h" || got.DestContext != 1 || got.DestEndpoint != 2 || got.SrcContext != 3 {
		t.Errorf("traced frame decoded wrong: %+v", got)
	}
}

// TestPatchDestExtended checks in-place re-addressing against both header
// layouts: the destination words shift one byte right under versionExt.
func TestPatchDestExtended(t *testing.T) {
	for _, flags := range []byte{0, FlagTrace} {
		f := Frame{Type: TypeRSR, Flags: flags, DestContext: 1, DestEndpoint: 2,
			SrcContext: 3, Ext: Ext{Trace: [16]byte{1}}, Handler: "h", Payload: []byte{9}}
		enc := f.Encode()
		PatchDest(enc, 77, 88)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("flags %#x: decoding patched frame: %v", flags, err)
		}
		if got.DestContext != 77 || got.DestEndpoint != 88 {
			t.Errorf("flags %#x: PatchDest gave (%d, %d), want (77, 88)",
				flags, got.DestContext, got.DestEndpoint)
		}
		if got.SrcContext != 3 || got.Handler != "h" || string(got.Payload) != "\x09" {
			t.Errorf("flags %#x: PatchDest disturbed other fields: %+v", flags, got)
		}
		if flags&FlagTrace != 0 && got.Trace != f.Trace {
			t.Errorf("PatchDest disturbed trace: %x", got.Trace)
		}
	}
}

func TestDecodeRejectsBadFlags(t *testing.T) {
	good := (&Frame{Type: TypeRSR, Flags: FlagTrace, Handler: "h"}).Encode()

	// Extended header claiming no extensions: never produced by the encoder.
	noFlags := append([]byte(nil), good...)
	noFlags[3] = 0
	if _, err := Decode(noFlags); !errors.Is(err, ErrBadFlags) {
		t.Errorf("flags=0 under versionExt: err = %v, want ErrBadFlags", err)
	}

	// Unknown flag bit: header length would be ambiguous.
	unknown := append([]byte(nil), good...)
	unknown[3] = FlagTrace | 0x80
	if _, err := Decode(unknown); !errors.Is(err, ErrBadFlags) {
		t.Errorf("unknown flag bit: err = %v, want ErrBadFlags", err)
	}
}

// TestCreditExtensionRoundTrip pins the credit extension layout: cumulative
// byte and frame totals after the frag extension, class bits in the flags
// byte, and a class-only frame (no extension payload at all) surviving the
// round trip.
func TestCreditExtensionRoundTrip(t *testing.T) {
	f := Frame{
		Type: TypeControl, Flags: FlagCredit | ClassFlags(ClassControl),
		DestContext: 1, DestEndpoint: 0, SrcContext: 3,
		Ext:     Ext{CreditBytes: 1 << 40, CreditFrames: 512},
		Handler: "mpl", Payload: []byte{0xAA},
	}
	enc := f.Encode()
	if enc[1] != versionExt {
		t.Fatalf("credit frame encoded as version %d, want %d", enc[1], versionExt)
	}
	if len(enc) != f.EncodedLen() {
		t.Fatalf("EncodedLen %d != len(Encode()) %d", f.EncodedLen(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding credit frame: %v", err)
	}
	if !got.HasCredit() || got.CreditBytes != 1<<40 || got.CreditFrames != 512 {
		t.Errorf("credit did not round-trip: bytes=%d frames=%d", got.CreditBytes, got.CreditFrames)
	}
	if got.Class() != ClassControl {
		t.Errorf("Class() = %d, want ClassControl", got.Class())
	}
	if FrameClass(enc) != ClassControl {
		t.Errorf("FrameClass = %d, want ClassControl", FrameClass(enc))
	}

	// Class bits alone: a versionExt header whose only extension content is
	// the flags byte itself.
	bulk := Frame{Type: TypeRSR, Flags: ClassFlags(ClassBulk),
		DestContext: 5, DestEndpoint: 6, SrcContext: 7, Handler: "h", Payload: []byte{1}}
	benc := bulk.Encode()
	bgot, err := Decode(benc)
	if err != nil {
		t.Fatalf("decoding class-only frame: %v", err)
	}
	if bgot.Class() != ClassBulk || bgot.HasCredit() || bgot.HasTrace() {
		t.Errorf("class-only frame decoded wrong: %+v", bgot)
	}
	if FrameClass(benc) != ClassBulk {
		t.Errorf("FrameClass = %d, want ClassBulk", FrameClass(benc))
	}
	// PatchDest must respect the extended layout on class-tagged frames.
	PatchDest(benc, 90, 91)
	pg, err := Decode(benc)
	if err != nil || pg.DestContext != 90 || pg.DestEndpoint != 91 || pg.Class() != ClassBulk {
		t.Errorf("PatchDest on class-tagged frame: %+v, err=%v", pg, err)
	}

	// All three extensions together, in flag-bit order.
	all := Frame{Type: TypeRSR, Flags: FlagTrace | FlagFrag | FlagCredit | ClassFlags(ClassBulk),
		Ext: Ext{Trace: [16]byte{9}, FragID: 4, FragIndex: 1, FragTotal: 3,
			CreditBytes: 77, CreditFrames: 2}, Handler: "x", Payload: []byte{3}}
	ag, err := Decode(all.Encode())
	if err != nil {
		t.Fatalf("decoding trace+frag+credit frame: %v", err)
	}
	if ag.Trace != all.Trace || ag.FragID != 4 || ag.CreditBytes != 77 || ag.Class() != ClassBulk {
		t.Errorf("combined extensions decoded wrong: %+v", ag)
	}
}

// TestDecodeRejectsReservedClass pins class value 3 as undecodable: it is
// reserved so a future revision can attach an extension to it.
func TestDecodeRejectsReservedClass(t *testing.T) {
	enc := (&Frame{Type: TypeRSR, Flags: FlagTrace, Handler: "h"}).Encode()
	enc[3] |= ClassMask
	if _, err := Decode(enc); !errors.Is(err, ErrBadFlags) {
		t.Errorf("reserved class 3: err = %v, want ErrBadFlags", err)
	}
}

// TestFrameClassOnV1 pins that v1 (flagless) and malformed byte streams read
// as ClassNormal through the transport-facing fast classifier.
func TestFrameClassOnV1(t *testing.T) {
	v1 := encodeV1ByHand(TypeRSR, 1, 2, 3, "h", []byte("p"))
	if got := FrameClass(v1); got != ClassNormal {
		t.Errorf("FrameClass(v1) = %d, want ClassNormal", got)
	}
	if got := FrameClass([]byte{1, 2}); got != ClassNormal {
		t.Errorf("FrameClass(garbage) = %d, want ClassNormal", got)
	}
}

func TestDecodeTruncatedCreditExtension(t *testing.T) {
	enc := (&Frame{Type: TypeControl, Flags: FlagCredit, Ext: Ext{CreditBytes: 1, CreditFrames: 2},
		Handler: "handler"}).Encode()
	cut := enc[:headerFixed+1+8] // inside the credit extension
	if _, err := Decode(cut); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated credit ext: err = %v, want ErrShortFrame", err)
	}
}

func TestDecodeTruncatedTraceExtension(t *testing.T) {
	enc := (&Frame{Type: TypeRSR, Flags: FlagTrace, Handler: "handler", Payload: []byte{1, 2}}).Encode()
	// Cut inside the trace extension.
	cut := enc[:headerFixed+1+8]
	if _, err := Decode(cut); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated trace ext: err = %v, want ErrShortFrame", err)
	}
}
