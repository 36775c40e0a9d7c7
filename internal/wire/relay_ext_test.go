package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestRelayExtensionRoundTrip pins the relay extension layout: TTL byte then
// via word, last in flag-bit order (after the RPC extension), surviving
// encode/decode alone and alongside every other extension.
func TestRelayExtensionRoundTrip(t *testing.T) {
	f := Frame{
		Type: TypeRSR, Flags: FlagRelay,
		DestContext: 1, DestEndpoint: 2, SrcContext: 3,
		Ext:     Ext{Relay: RelayExt{TTL: 8, Via: 0x1122334455667788}},
		Handler: "svc", Payload: []byte{0xAA},
	}
	enc := f.Encode()
	if enc[1] != versionExt {
		t.Fatalf("relay frame encoded as version %d, want %d", enc[1], versionExt)
	}
	if len(enc) != f.EncodedLen() {
		t.Fatalf("EncodedLen %d != len(Encode()) %d", f.EncodedLen(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding relay frame: %v", err)
	}
	if !got.HasRelay() || got.Relay != f.Relay {
		t.Errorf("relay ext did not round-trip: %+v", got.Relay)
	}
	if got.Handler != "svc" || got.DestContext != 1 || got.SrcContext != 3 {
		t.Errorf("relay frame decoded wrong: %+v", got)
	}

	// Byte layout pin: the extension sits right after the fixed header and
	// flags byte when it is the only extension.
	off := headerFixed + 1
	if enc[off] != 8 {
		t.Errorf("ttl byte not at offset %d", off)
	}
	if binary.BigEndian.Uint64(enc[off+1:]) != f.Relay.Via {
		t.Errorf("via word not at offset %d", off+1)
	}

	// Every extension at once: trace, frag, credit, rpc, then relay, in flag
	// order.
	all := Frame{
		Type: TypeRSR, Flags: FlagTrace | FlagFrag | FlagCredit | FlagRPC | FlagRelay | ClassFlags(ClassControl),
		Ext: Ext{Trace: [16]byte{9}, FragID: 4, FragIndex: 1, FragTotal: 3,
			CreditBytes: 77, CreditFrames: 2,
			RPC:   RPCExt{Call: 42, Kind: RPCStreamChunk, Aux: 7},
			Relay: RelayExt{TTL: 3, Via: 55}},
		Handler: "x", Payload: []byte{3},
	}
	aenc := all.Encode()
	ag, err := Decode(aenc)
	if err != nil {
		t.Fatalf("decoding all-extensions frame: %v", err)
	}
	if ag.Relay != all.Relay || ag.RPC != all.RPC || ag.Trace != all.Trace ||
		ag.FragID != 4 || ag.CreditBytes != 77 || ag.Class() != ClassControl {
		t.Errorf("combined extensions decoded wrong: %+v", ag)
	}
	aoff := headerFixed + 1 + traceExtLen + fragExtLen + creditExtLen + rpcExtLen
	if aenc[aoff] != 3 || binary.BigEndian.Uint64(aenc[aoff+1:]) != 55 {
		t.Errorf("relay ext not after rpc ext at offset %d", aoff)
	}

	// PatchDest must leave the relay extension intact on re-addressed frames.
	PatchDest(enc, 90, 91)
	pg, err := Decode(enc)
	if err != nil || pg.DestContext != 90 || pg.DestEndpoint != 91 || pg.Relay != f.Relay {
		t.Errorf("PatchDest on relay frame: %+v, err=%v", pg, err)
	}
}

// TestPatchRelay pins the in-place hop-budget rewrite forwarders apply to raw
// relayed bytes: TTL and via change, nothing else does.
func TestPatchRelay(t *testing.T) {
	f := Frame{
		Type: TypeRSR, Flags: FlagTrace | FlagRelay,
		DestContext: 7, DestEndpoint: 8, SrcContext: 9,
		Ext:     Ext{Trace: [16]byte{1}, Relay: RelayExt{TTL: 5, Via: 0}},
		Handler: "hop", Payload: []byte{1, 2, 3},
	}
	enc := f.Encode()
	want := append([]byte(nil), enc...)
	if !PatchRelay(enc, 4, 1234) {
		t.Fatal("PatchRelay refused a relay frame")
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding patched frame: %v", err)
	}
	if got.Relay.TTL != 4 || got.Relay.Via != 1234 {
		t.Errorf("patched relay ext = %+v, want TTL 4 via 1234", got.Relay)
	}
	// Only the 9 relay-extension bytes may differ.
	off := headerFixed + 1 + traceExtLen
	for i := range enc {
		if i >= off && i < off+relayExtLen {
			continue
		}
		if enc[i] != want[i] {
			t.Fatalf("PatchRelay disturbed byte %d: %#x != %#x", i, enc[i], want[i])
		}
	}

	// Frames without the extension are refused untouched: v1 frames and
	// extended frames with other flags.
	v1 := (&Frame{Type: TypeRSR, Handler: "h"}).Encode()
	if PatchRelay(v1, 1, 2) {
		t.Error("PatchRelay accepted a v1 frame")
	}
	traced := (&Frame{Type: TypeRSR, Flags: FlagTrace, Handler: "h"}).Encode()
	if PatchRelay(traced, 1, 2) {
		t.Error("PatchRelay accepted a relay-less extended frame")
	}
	if PatchRelay(enc[:headerFixed], 1, 2) {
		t.Error("PatchRelay accepted a truncated frame")
	}
}

// TestDecodeRejectsZeroRelayTTL pins TTL 0 as undecodable: the originator
// always stamps a positive budget and relays drop rather than forward at 0.
func TestDecodeRejectsZeroRelayTTL(t *testing.T) {
	enc := (&Frame{Type: TypeRSR, Flags: FlagRelay,
		Ext: Ext{Relay: RelayExt{TTL: 1, Via: 3}}, Handler: "h"}).Encode()
	enc[headerFixed+1] = 0
	if _, err := Decode(enc); !errors.Is(err, ErrBadRelay) {
		t.Errorf("ttl 0: err = %v, want ErrBadRelay", err)
	}
}

func TestDecodeTruncatedRelayExtension(t *testing.T) {
	enc := (&Frame{Type: TypeRSR, Flags: FlagRelay,
		Ext: Ext{Relay: RelayExt{TTL: 2, Via: 5}}, Handler: "handler"}).Encode()
	cut := enc[:headerFixed+1+4] // inside the relay extension
	if _, err := Decode(cut); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated relay ext: err = %v, want ErrShortFrame", err)
	}
}

// FuzzDecodeRelayExt drives the fuzzer through the FlagRelay parse and
// validation paths: any accepted frame must re-encode byte-identically, and
// accepted relay frames must carry a positive hop budget.
func FuzzDecodeRelayExt(f *testing.F) {
	for _, ttl := range []byte{1, 2, 8, 255} {
		f.Add((&Frame{Type: TypeRSR, Flags: FlagRelay,
			DestContext: 1, DestEndpoint: 2, SrcContext: 3,
			Ext:     Ext{Relay: RelayExt{TTL: ttl, Via: uint64(ttl) << 32}},
			Handler: "relay", Payload: []byte{ttl}}).Encode())
	}
	// Relay alongside every other extension, and with class bits.
	f.Add((&Frame{Type: TypeForward,
		Flags: FlagTrace | FlagFrag | FlagCredit | FlagRPC | FlagRelay | ClassFlags(ClassBulk),
		Ext: Ext{Trace: [16]byte{1}, FragID: 2, FragIndex: 0, FragTotal: 2,
			CreditBytes: 3, CreditFrames: 4,
			RPC:   RPCExt{Call: 5, Kind: RPCResponse, Aux: 6},
			Relay: RelayExt{TTL: 7, Via: 8}},
		Handler: "all", Payload: []byte{9}}).Encode())
	// Near-miss corruptions: zero TTL, truncation, patched bytes.
	good := (&Frame{Type: TypeRSR, Flags: FlagRelay,
		Ext: Ext{Relay: RelayExt{TTL: 9, Via: 10}}, Handler: "g"}).Encode()
	zeroTTL := append([]byte(nil), good...)
	zeroTTL[headerFixed+1] = 0
	f.Add(zeroTTL)
	f.Add(good[:headerFixed+1+4])
	patched := append([]byte(nil), good...)
	PatchRelay(patched, 1, 0xFFFFFFFFFFFFFFFF)
	f.Add(patched)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(fr.Encode(), data) {
			t.Errorf("accepted frame does not round-trip: % x", data)
		}
		if fr.HasRelay() && fr.Relay.TTL == 0 {
			t.Errorf("accepted relay frame with zero ttl")
		}
		// PatchRelay on an accepted frame must keep it decodable with only
		// the relay values changed.
		if fr.HasRelay() {
			cp := append([]byte(nil), data...)
			if !PatchRelay(cp, fr.Relay.TTL, 77) {
				t.Fatalf("PatchRelay refused an accepted relay frame")
			}
			pf, err := Decode(cp)
			if err != nil || pf.Relay.Via != 77 || pf.Relay.TTL != fr.Relay.TTL {
				t.Errorf("patched frame corrupt: %+v err=%v", pf, err)
			}
		}
	})
}
