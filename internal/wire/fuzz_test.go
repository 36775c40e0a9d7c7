package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecode checks that Decode never panics on arbitrary input and that
// anything it accepts re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(sample().Encode())
	f.Add([]byte{})
	f.Add([]byte{magic, version, TypeRSR})
	f.Add((&Frame{Type: TypeForward, Handler: "h", Payload: []byte{1}}).Encode())
	// Extended-header seeds: a traced frame, and near-miss corruptions of
	// its flags byte, steering the fuzzer into the versionExt parse paths.
	traced := &Frame{Type: TypeRSR, Flags: FlagTrace,
		Ext:     Ext{Trace: [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
		Handler: "traced", Payload: []byte{0xAB}}
	f.Add(traced.Encode())
	badFlags := traced.Encode()
	badFlags[3] = 0xFF
	f.Add(badFlags)
	// Fragment-extension seeds: frag alone, frag alongside trace, and a
	// corrupted fragment count, steering the fuzzer into the FlagFrag parse
	// and validation paths.
	fragged := &Frame{Type: TypeRSR, Flags: FlagFrag,
		Ext:     Ext{FragID: 0x0102030405060708, FragIndex: 2, FragTotal: 5},
		Handler: "frag", Payload: []byte{0xCD}}
	f.Add(fragged.Encode())
	f.Add((&Frame{Type: TypeRSR, Flags: FlagTrace | FlagFrag,
		Ext:     Ext{Trace: [16]byte{7}, FragID: 9, FragIndex: 0, FragTotal: 1},
		Handler: "both", Payload: []byte{1, 2}}).Encode())
	badFrag := fragged.Encode()
	badFrag[headerFixed+1+8+4+3] = 0 // FragTotal -> 0
	f.Add(badFrag)
	// Credit-extension and class-bit seeds: a credit grant, a class-only
	// frame (flags byte but zero extension payload), all extensions at once,
	// and the reserved class value, steering the fuzzer into the FlagCredit
	// parse path and the class validation.
	f.Add((&Frame{Type: TypeControl, Flags: FlagCredit | ClassFlags(ClassControl),
		Ext: Ext{CreditBytes: 1 << 20, CreditFrames: 64}, Handler: "credit"}).Encode())
	f.Add((&Frame{Type: TypeRSR, Flags: ClassFlags(ClassBulk),
		Handler: "bulk", Payload: []byte{7}}).Encode())
	f.Add((&Frame{Type: TypeRSR, Flags: FlagTrace | FlagFrag | FlagCredit | ClassFlags(ClassBulk),
		Ext: Ext{Trace: [16]byte{3}, FragID: 1, FragIndex: 0, FragTotal: 2,
			CreditBytes: 9, CreditFrames: 1}, Handler: "all", Payload: []byte{8}}).Encode())
	reservedClass := (&Frame{Type: TypeRSR, Flags: FlagTrace, Handler: "r"}).Encode()
	reservedClass[3] |= ClassMask
	f.Add(reservedClass)
	// RPC-extension seeds: a request, and a corrupt kind byte, steering the
	// fuzzer into the FlagRPC parse path (FuzzDecodeRPCExt goes deeper).
	rpc := (&Frame{Type: TypeRSR, Flags: FlagRPC,
		Ext: Ext{RPC: RPCExt{Call: 11, Kind: RPCRequest, Aux: 12}}, Handler: "rpc"}).Encode()
	f.Add(rpc)
	badKind := append([]byte(nil), rpc...)
	badKind[headerFixed+1+8] = 0xEE
	f.Add(badKind)
	// Relay-extension seeds: a relayed frame, and a zero TTL, steering the
	// fuzzer into the FlagRelay parse path (FuzzDecodeRelayExt goes deeper).
	relayed := (&Frame{Type: TypeRSR, Flags: FlagRelay,
		Ext: Ext{Relay: RelayExt{TTL: 6, Via: 42}}, Handler: "relay"}).Encode()
	f.Add(relayed)
	zeroTTL := append([]byte(nil), relayed...)
	zeroTTL[headerFixed+1] = 0
	f.Add(zeroTTL)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(fr.Encode(), data) {
			t.Errorf("accepted frame does not round-trip: % x", data)
		}
	})
}

// FuzzReadFrame checks the stream framer against arbitrary byte streams.
func FuzzReadFrame(f *testing.F) {
	f.Add(prefixed(sample().Encode()))
	f.Add(prefixed((&Frame{Type: TypeRSR, Flags: FlagTrace,
		Ext: Ext{Trace: [16]byte{9}}, Handler: "t"}).Encode()))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			frame, err := ReadFrame(br)
			if err != nil {
				return
			}
			if len(frame) > len(data) {
				t.Errorf("frame longer than input: %d > %d", len(frame), len(data))
			}
		}
	})
}
