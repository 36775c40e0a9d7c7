package core

import (
	"bytes"
	"testing"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

// FuzzDecodeStartpoint feeds a peer's bytes to DecodeStartpoint: it must fail
// cleanly or return a startpoint no larger than the input could encode, and
// whatever decodes must re-encode to exactly the bytes it consumed.
func FuzzDecodeStartpoint(f *testing.F) {
	c := newCtx(f, "fuzz-sp", "")
	table := transport.NewTable(
		transport.Descriptor{Method: "tcp", Context: 7, Attrs: map[string]string{"addr": "127.0.0.1:9000"}},
		transport.Descriptor{Method: "local", Context: 7},
	)
	full := c.NewStartpointTo(7, 3, table)
	for _, fm := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
		b := buffer.NewFormat(fm, 128)
		full.Encode(b)
		f.Add(b.Encode())
		b = buffer.NewFormat(fm, 64)
		full.EncodeLite(b)
		f.Add(b.Encode())
	}
	multi := c.NewStartpointTo(7, 3, table)
	multi.Merge(c.NewStartpointTo(8, 4, nil))
	b := buffer.NewFormat(buffer.LittleEndian, 128)
	multi.Encode(b)
	f.Add(b.Encode())
	f.Add([]byte{0, 0xFF, 0xFF}) // 65535 targets, no bytes behind them
	// A has-table flag byte of 2 must be rejected: read as true, it would
	// re-encode as 1.
	b = buffer.NewFormat(buffer.LittleEndian, 128)
	full.Encode(b)
	flagged := b.Encode()
	flagged[1+2+16] = 2
	f.Add(flagged)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := buffer.FromBytes(data)
		if err != nil {
			return
		}
		sp, err := c.DecodeStartpoint(b)
		if err != nil {
			return
		}
		if targets := sp.targets(); cap(targets)*minTargetBytes > len(data) {
			t.Fatalf("decoded %d targets (capacity %d) from %d bytes", len(targets), cap(targets), len(data))
		}
		used := data[1 : len(data)-b.Remaining()]
		re := buffer.NewFormat(b.Format(), len(used))
		sp.Encode(re)
		if !bytes.Equal(re.Bytes(), used) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re.Bytes(), used)
		}
	})
}
