package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenExt is the Ext every golden frame was encoded from. All five
// extensions are filled whichever flags a frame carries, so an encoder that
// lets an absent extension leak into the header shows up as a byte difference.
var goldenExt = Ext{
	Trace:  [16]byte{0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xAB, 0xAC, 0xAD, 0xAE, 0xAF},
	FragID: 0x3132333435363738, FragIndex: 2, FragTotal: 5,
	CreditBytes: 0x4142434445464748, CreditFrames: 0x5152535455565758,
	RPC:   RPCExt{Call: 0x6162636465666768, Kind: RPCStreamChunk, Aux: 0x7172737475767778},
	Relay: RelayExt{TTL: 7, Via: 0x8182838485868788},
}

func goldenFrame(flags byte) Frame {
	return Frame{
		Type: TypeRSR, Flags: flags,
		DestContext: 0x0102030405060708, DestEndpoint: 0x1112131415161718, SrcContext: 0x2122232425262728,
		Ext: goldenExt, Handler: "golden", Payload: []byte{0xde, 0xad, 0xbe, 0xef},
	}
}

// presentExt is goldenExt with the extensions flags does not select zeroed:
// what a decoder must report.
func presentExt(flags byte) Ext {
	var e Ext
	if flags&FlagTrace != 0 {
		e.Trace = goldenExt.Trace
	}
	if flags&FlagFrag != 0 {
		e.FragID, e.FragIndex, e.FragTotal = goldenExt.FragID, goldenExt.FragIndex, goldenExt.FragTotal
	}
	if flags&FlagCredit != 0 {
		e.CreditBytes, e.CreditFrames = goldenExt.CreditBytes, goldenExt.CreditFrames
	}
	if flags&FlagRPC != 0 {
		e.RPC = goldenExt.RPC
	}
	if flags&FlagRelay != 0 {
		e.Relay = goldenExt.Relay
	}
	return e
}

// TestGoldenExtensionBytes pins every encoded byte of every flag combination
// (2^5 extension subsets x class 0-2) against frames the hand-branched
// encoder produced before the extension table existed, and checks that the
// sizes, the decoder and PatchRelay derived from the table agree with them.
func TestGoldenExtensionBytes(t *testing.T) {
	file, err := os.Open("testdata/golden_ext.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	seen := map[byte]bool{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		flagHex, frameHex, _ := strings.Cut(line, " ")
		fl, err := strconv.ParseUint(flagHex, 16, 8)
		if err != nil {
			t.Fatalf("bad flags in %q: %v", line, err)
		}
		flags := byte(fl)
		want, err := hex.DecodeString(frameHex)
		if err != nil {
			t.Fatalf("bad frame in %q: %v", line, err)
		}
		seen[flags] = true

		f := goldenFrame(flags)
		if got := f.Encode(); !bytes.Equal(got, want) {
			t.Errorf("flags %#02x: encoded\n got %x\nwant %x", flags, got, want)
			continue
		}
		if n := HeaderLenExt(len(f.Handler), flags) + len(f.Payload); n != len(want) || f.EncodedLen() != len(want) {
			t.Errorf("flags %#02x: HeaderLenExt+payload = %d, EncodedLen = %d, frame is %d bytes",
				flags, n, f.EncodedLen(), len(want))
		}

		var d Frame
		if err := DecodeInto(&d, want); err != nil {
			t.Errorf("flags %#02x: decode: %v", flags, err)
			continue
		}
		if d.Type != f.Type || d.Flags != flags || d.DestContext != f.DestContext ||
			d.DestEndpoint != f.DestEndpoint || d.SrcContext != f.SrcContext ||
			d.Handler != f.Handler || !bytes.Equal(d.Payload, f.Payload) {
			t.Errorf("flags %#02x: fixed fields decoded wrong: %+v", flags, d)
		}
		if d.Ext != presentExt(flags) {
			t.Errorf("flags %#02x: extensions decoded\n got %+v\nwant %+v", flags, d.Ext, presentExt(flags))
		}

		// PatchRelay must touch exactly the relay extension's bytes, wherever
		// the extensions before it put them.
		patched := append([]byte(nil), want...)
		if ok := PatchRelay(patched, 3, 0x9192939495969798); ok != (flags&FlagRelay != 0) {
			t.Errorf("flags %#02x: PatchRelay = %v", flags, ok)
		} else if ok {
			pf := goldenFrame(flags)
			pf.Relay = RelayExt{TTL: 3, Via: 0x9192939495969798}
			if !bytes.Equal(patched, pf.Encode()) {
				t.Errorf("flags %#02x: PatchRelay wrote at the wrong offset:\n got %x\nwant %x", flags, patched, pf.Encode())
			}
		} else if !bytes.Equal(patched, want) {
			t.Errorf("flags %#02x: PatchRelay changed a frame it refused", flags)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 96 {
		t.Errorf("golden file covers %d flag combinations, want 96", len(seen))
	}
}

// TestTableSums checks the two package-level values derived from the table
// against the table itself and against the file's widest frame.
func TestTableSums(t *testing.T) {
	known, total := ClassMask, 0
	last := byte(0)
	for _, x := range extensions {
		if x.flag <= last || x.flag&(x.flag-1) != 0 || x.flag&ClassMask != 0 {
			t.Errorf("row %#02x: rows must be single non-class bits in ascending order", x.flag)
		}
		last = x.flag
		known |= x.flag
		total += x.size
	}
	if knownFlags != known {
		t.Errorf("knownFlags = %#02x, table says %#02x", knownFlags, known)
	}
	if want := headerFixed + 1 + total + MaxHandlerLen + 4 + MaxPayload; MaxFrameLen() != want {
		t.Errorf("MaxFrameLen() = %d, table says %d", MaxFrameLen(), want)
	}
	all := goldenFrame(knownFlags &^ ClassMask)
	if got, want := len(all.Encode()), MaxFrameLen()-MaxHandlerLen-MaxPayload+len(all.Handler)+len(all.Payload); got != want {
		t.Errorf("frame with every extension is %d bytes, MaxFrameLen() implies %d", got, want)
	}
}
