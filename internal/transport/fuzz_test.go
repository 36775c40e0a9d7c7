package transport

import (
	"bytes"
	"testing"

	"nexus/internal/buffer"
)

// FuzzDecodeTable checks that DecodeTable never panics or over-allocates on
// hostile input — tables arrive from untrusted peers — and that anything it
// accepts re-encodes to exactly the bytes it was decoded from: the layout is
// canonical, and a decoded descriptor's attribute block is a substring of
// the input.
func FuzzDecodeTable(f *testing.F) {
	good := NewTable(
		Descriptor{Method: "tcp", Context: 7, Attrs: map[string]string{"addr": "127.0.0.1:9000"}},
		Descriptor{Method: "mpl", Context: 7, Attrs: map[string]string{"partition": "p0", "fabric": "default"}},
		Descriptor{Method: "local", Context: 300},
	)
	for _, f0 := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
		gb := buffer.NewFormat(f0, 64)
		good.Encode(gb)
		f.Add(gb.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0})                                            // format byte only, no table
	f.Add([]byte{0, tableVersion, 0xFF, 0xFF, 0x03})            // 65535 entries, no bytes behind them
	f.Add([]byte{0, 1, 1, 1, 'x', 0, 1, 0})                     // table version 1
	f.Add([]byte{0, tableVersion, 1, 1, 'x', 0, 2, 0})          // block version 2
	f.Add([]byte{0, tableVersion, 0x81, 0x00, 1, 'x', 0, 1, 0}) // overlong entry count
	f.Add([]byte{0, tableVersion, 1, 1, 'x',
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 1, 0}) // context wider than 64 bits
	f.Add([]byte{0, tableVersion, 1, 1, 'x', 0, 1, 2, 1, 'b', 0, 1, 'a', 0}) // keys out of order
	f.Add([]byte{0, tableVersion, 1, 1, 'x', 0, 1, 1, 5, 'k'})               // key longer than the input
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := buffer.FromBytes(data)
		if err != nil {
			return
		}
		tbl, err := DecodeTable(b)
		if err != nil {
			return
		}
		// A hostile count must never produce a table larger than the input
		// could possibly encode.
		if cap(tbl.Entries)*minEntryBytes > len(data) {
			t.Fatalf("decoded %d entries (capacity %d) from %d input bytes", tbl.Len(), cap(tbl.Entries), len(data))
		}
		used := data[1 : len(data)-b.Remaining()]
		for _, f0 := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
			rb := buffer.NewFormat(f0, len(data))
			tbl.Encode(rb)
			if !bytes.Equal(rb.Bytes(), used) {
				t.Fatalf("%v re-encoding differs:\n got %x\nwant %x", f0, rb.Bytes(), used)
			}
			if n := tbl.EncodedLen(); n != len(used) {
				t.Fatalf("EncodedLen = %d, encoding is %d bytes", n, len(used))
			}
		}
		if c := tbl.Clone(); !c.Equal(tbl) || !tbl.Equal(c) {
			t.Fatalf("map-backed clone differs: %v vs %v", c, tbl)
		}
	})
}
