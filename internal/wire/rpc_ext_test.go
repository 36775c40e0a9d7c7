package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestRPCExtensionRoundTrip pins the RPC extension layout: call id, kind,
// and auxiliary word after the credit extension (flag-bit order), surviving
// encode/decode alone and alongside every other extension.
func TestRPCExtensionRoundTrip(t *testing.T) {
	f := Frame{
		Type: TypeRSR, Flags: FlagRPC,
		DestContext: 1, DestEndpoint: 2, SrcContext: 3,
		Ext:     Ext{RPC: RPCExt{Call: 0x1122334455667788, Kind: RPCRequest, Aux: 0x99}},
		Handler: "svc", Payload: []byte{0xAA},
	}
	enc := f.Encode()
	if enc[1] != versionExt {
		t.Fatalf("rpc frame encoded as version %d, want %d", enc[1], versionExt)
	}
	if len(enc) != f.EncodedLen() {
		t.Fatalf("EncodedLen %d != len(Encode()) %d", f.EncodedLen(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding rpc frame: %v", err)
	}
	if !got.HasRPC() || got.RPC != f.RPC {
		t.Errorf("rpc ext did not round-trip: %+v", got.RPC)
	}
	if got.Handler != "svc" || got.DestContext != 1 || got.SrcContext != 3 {
		t.Errorf("rpc frame decoded wrong: %+v", got)
	}

	// Byte layout pin: the extension sits right after the fixed header and
	// flags byte when it is the only extension.
	off := headerFixed + 1
	if binary.BigEndian.Uint64(enc[off:]) != f.RPC.Call {
		t.Errorf("call id not at offset %d", off)
	}
	if enc[off+8] != RPCRequest {
		t.Errorf("kind byte = %d, want %d", enc[off+8], RPCRequest)
	}
	if binary.BigEndian.Uint64(enc[off+9:]) != f.RPC.Aux {
		t.Errorf("aux word not at offset %d", off+9)
	}

	// Every extension at once: trace, frag, credit, then rpc, in flag order.
	all := Frame{
		Type: TypeRSR, Flags: FlagTrace | FlagFrag | FlagCredit | FlagRPC | ClassFlags(ClassBulk),
		Ext: Ext{Trace: [16]byte{9}, FragID: 4, FragIndex: 1, FragTotal: 3,
			CreditBytes: 77, CreditFrames: 2,
			RPC: RPCExt{Call: 42, Kind: RPCStreamChunk, Aux: 7}},
		Handler: "x", Payload: []byte{3},
	}
	aenc := all.Encode()
	ag, err := Decode(aenc)
	if err != nil {
		t.Fatalf("decoding all-extensions frame: %v", err)
	}
	if ag.RPC != all.RPC || ag.Trace != all.Trace || ag.FragID != 4 ||
		ag.CreditBytes != 77 || ag.Class() != ClassBulk {
		t.Errorf("combined extensions decoded wrong: %+v", ag)
	}
	aoff := headerFixed + 1 + traceExtLen + fragExtLen + creditExtLen
	if binary.BigEndian.Uint64(aenc[aoff:]) != 42 || aenc[aoff+8] != RPCStreamChunk {
		t.Errorf("rpc ext not after credit ext at offset %d", aoff)
	}

	// PatchDest must leave the rpc extension intact on re-addressed frames.
	PatchDest(enc, 90, 91)
	pg, err := Decode(enc)
	if err != nil || pg.DestContext != 90 || pg.DestEndpoint != 91 || pg.RPC != f.RPC {
		t.Errorf("PatchDest on rpc frame: %+v, err=%v", pg, err)
	}
}

// TestDecodeRejectsBadRPCKind pins kind 0 and kinds beyond RPCMaxKind as
// undecodable, reserving them for future protocol revisions. Kinds 7-9 once
// carried a bulk-handle pull protocol and are rejected like any unknown kind.
func TestDecodeRejectsBadRPCKind(t *testing.T) {
	enc := (&Frame{Type: TypeRSR, Flags: FlagRPC,
		Ext: Ext{RPC: RPCExt{Call: 1, Kind: RPCRequest}}, Handler: "h"}).Encode()
	kindOff := headerFixed + 1 + 8

	for _, kind := range []byte{0, 7, 8, 9, 0xFF} {
		bad := append([]byte(nil), enc...)
		bad[kindOff] = kind
		if _, err := Decode(bad); !errors.Is(err, ErrBadRPC) {
			t.Errorf("kind %d: err = %v, want ErrBadRPC", kind, err)
		}
	}
}

func TestDecodeTruncatedRPCExtension(t *testing.T) {
	enc := (&Frame{Type: TypeRSR, Flags: FlagRPC,
		Ext: Ext{RPC: RPCExt{Call: 5, Kind: RPCResponse, Aux: 9}}, Handler: "handler"}).Encode()
	cut := enc[:headerFixed+1+8] // inside the rpc extension
	if _, err := Decode(cut); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated rpc ext: err = %v, want ErrShortFrame", err)
	}
}

// FuzzDecodeRPCExt drives the fuzzer through the FlagRPC parse and
// validation paths: any accepted frame must re-encode byte-identically, and
// accepted RPC frames must carry a valid kind.
func FuzzDecodeRPCExt(f *testing.F) {
	for _, kind := range []byte{RPCRequest, RPCResponse, RPCError, RPCCancel,
		RPCStreamChunk, RPCStreamEnd} {
		f.Add((&Frame{Type: TypeRSR, Flags: FlagRPC,
			DestContext: 1, DestEndpoint: 2, SrcContext: 3,
			Ext:     Ext{RPC: RPCExt{Call: uint64(kind) << 32, Kind: kind, Aux: 0x0102030405060708}},
			Handler: "rpc", Payload: []byte{kind}}).Encode())
	}
	// RPC alongside every other extension, and with class bits.
	f.Add((&Frame{Type: TypeRSR,
		Flags: FlagTrace | FlagFrag | FlagCredit | FlagRPC | ClassFlags(ClassControl),
		Ext: Ext{Trace: [16]byte{1}, FragID: 2, FragIndex: 0, FragTotal: 2,
			CreditBytes: 3, CreditFrames: 4,
			RPC: RPCExt{Call: 5, Kind: RPCResponse, Aux: 6}},
		Handler: "all", Payload: []byte{9}}).Encode())
	// Near-miss corruptions: zero kind, the retired pull kinds 7-9, the top
	// kind, truncation.
	good := (&Frame{Type: TypeRSR, Flags: FlagRPC,
		Ext: Ext{RPC: RPCExt{Call: 7, Kind: RPCRequest, Aux: 8}}, Handler: "g"}).Encode()
	for _, kind := range []byte{0, 7, 8, 9, 0xFF} {
		bad := append([]byte(nil), good...)
		bad[headerFixed+1+8] = kind
		f.Add(bad)
	}
	f.Add(good[:headerFixed+1+4])
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(fr.Encode(), data) {
			t.Errorf("accepted frame does not round-trip: % x", data)
		}
		if fr.HasRPC() && (fr.RPC.Kind == 0 || fr.RPC.Kind > RPCMaxKind) {
			t.Errorf("accepted rpc frame with invalid kind %d", fr.RPC.Kind)
		}
	})
}
