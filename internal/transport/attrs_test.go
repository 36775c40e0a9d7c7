package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nexus/internal/buffer"
)

// attrSets are the attribute maps the sealed-form tests run over: none, an
// empty value, keys that sort before, between and after the probe keys, and
// a value long enough to need a two-byte length.
var attrSets = []map[string]string{
	nil,
	{},
	{"a": ""},
	{"addr": "127.0.0.1:9000"},
	{"addr": "1", "fabric": "f", "partition": "p0", "process": "p1", "scope": "partition"},
	{"b": "2", "d": "4", AttrCost: "250", AttrMaxMessage: "65536"},
	{"long": strings.Repeat("x", 300), "z": "last"},
}

// TestSealedAttrsMatchMap holds a sealed descriptor to the map-backed one it
// was sealed from: every attribute read, the advertised numbers, String,
// Equal in both directions, Clone and the encoded size.
func TestSealedAttrsMatchMap(t *testing.T) {
	probes := []string{"", "0", "a", "addr", "b", "c", "d", "e", "fabric", "long", "p", "relay", "scope", "z", "zz"}
	for i, m := range attrSets {
		d := Descriptor{Method: "tcp", Context: 300, Attrs: m}
		s := NewTable(d).Entries[0]
		if s.Attrs != nil {
			t.Fatalf("set %d: a table entry kept its Attrs map", i)
		}
		for k := range m {
			probes = append(probes, k)
		}
		for _, k := range probes {
			if got, want := s.Attr(k), d.Attr(k); got != want {
				t.Errorf("set %d: sealed Attr(%q) = %q, map-backed %q", i, k, got, want)
			}
		}
		if s.Cost() != d.Cost() || s.MaxMessage() != d.MaxMessage() {
			t.Errorf("set %d: sealed cost/max %d/%d, map-backed %d/%d", i, s.Cost(), s.MaxMessage(), d.Cost(), d.MaxMessage())
		}
		if s.String() != d.String() {
			t.Errorf("set %d: sealed String %q, map-backed %q", i, s.String(), d.String())
		}
		if !s.Equal(d) || !d.Equal(s) {
			t.Errorf("set %d: sealed and map-backed forms not Equal", i)
		}
		c := s.Clone()
		if c.Attrs == nil || !c.Equal(d) || fmt.Sprint(c.Attrs) != fmt.Sprint(d.Attrs) {
			t.Errorf("set %d: Clone of the sealed form = %v, want %v", i, c.Attrs, d.Attrs)
		}
		for _, tab := range []*Table{{Entries: []Descriptor{d}}, NewTable(d)} {
			b := buffer.New(0)
			tab.Encode(b)
			if tab.EncodedLen() != b.Len() {
				t.Errorf("set %d: EncodedLen %d, Encode wrote %d bytes", i, tab.EncodedLen(), b.Len())
			}
		}
	}
}

// TestTableEncodingIgnoresByteOrder pins the table layout to its content: a
// buffer of either byte order carries the same table bytes, and a table
// decoded from one order encodes into the other by copying.
func TestTableEncodingIgnoresByteOrder(t *testing.T) {
	tab := NewTable(
		Descriptor{Method: "mpl", Context: 1 << 40, Attrs: map[string]string{"partition": "p1", "node": "3"}},
		Descriptor{Method: "local", Context: 7},
	)
	le := buffer.NewFormat(buffer.LittleEndian, 64)
	be := buffer.NewFormat(buffer.BigEndian, 64)
	tab.Encode(le)
	tab.Encode(be)
	if !bytes.Equal(le.Bytes(), be.Bytes()) {
		t.Fatalf("table bytes depend on byte order:\n LE %x\n BE %x", le.Bytes(), be.Bytes())
	}
	got, err := DecodeTable(be)
	if err != nil {
		t.Fatal(err)
	}
	again := buffer.NewFormat(buffer.LittleEndian, 64)
	got.Encode(again)
	if !got.Equal(tab) || !bytes.Equal(again.Bytes(), le.Bytes()) {
		t.Errorf("decoded from big-endian: %v, re-encoded %x, want %v, %x", got, again.Bytes(), tab, le.Bytes())
	}
}

// TestDecodeTableRejects feeds DecodeTable encodings that break the layout
// in one place each; every one must fail, not decode to something else.
func TestDecodeTableRejects(t *testing.T) {
	v, bv := byte(tableVersion), byte(blockVersion)
	cases := map[string][]byte{
		"empty":                {},
		"table version":        {tableVersion + 1, 1, 1, 'x', 0, bv, 0},
		"block version":        {v, 1, 1, 'x', 0, bv + 1, 0},
		"overlong count":       {v, 0x81, 0x00, 1, 'x', 0, bv, 0},
		"overlong context":     {v, 1, 1, 'x', 0x80, 0x00, bv, 0},
		"context over 64 bits": {v, 1, 1, 'x', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, bv, 0},
		"unterminated uvarint": {v, 1, 1, 'x', 0x80},
		"count beyond bytes":   {v, 0xFF, 0xFF, 0x03, 1, 'x', 0, bv, 0},
		"method beyond bytes":  {v, 1, 9, 'x', 0, bv, 0},
		"missing block":        {v, 1, 1, 'x', 0},
		"pairs beyond bytes":   {v, 1, 1, 'x', 0, bv, 9, 0, 0},
		"value beyond bytes":   {v, 1, 1, 'x', 0, bv, 1, 1, 'k', 5, 'v'},
		"keys out of order":    {v, 1, 1, 'x', 0, bv, 2, 1, 'b', 0, 1, 'a', 0},
		"duplicate key":        {v, 1, 1, 'x', 0, bv, 2, 1, 'a', 0, 1, 'a', 0},
		"overlong key length":  {v, 1, 1, 'x', 0, bv, 1, 0x81, 0x00, 'k', 0},
	}
	for name, enc := range cases {
		b := buffer.New(len(enc))
		b.PutRaw(enc)
		if tab, err := DecodeTable(b); err == nil {
			t.Errorf("%s: decoded %v", name, tab)
		}
	}
}

// TestDecodeTableAllocs pins a decoded table to three allocations — the
// Table, its Entries and one string holding its bytes — and a sealed
// table's Encode to none.
func TestDecodeTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tab := NewTable(Descriptor{Method: "mpl", Context: 7, Attrs: map[string]string{"partition": "p0", "fabric": "f"}})
	enc := buffer.New(64)
	tab.Encode(enc)
	if avg := testing.AllocsPerRun(100, func() {
		enc.Rewind()
		if _, err := DecodeTable(enc); err != nil {
			t.Fatal(err)
		}
	}); avg != 3 {
		t.Errorf("DecodeTable of a one-entry table allocates %.1f times, want 3", avg)
	}
	out := buffer.New(64)
	if avg := testing.AllocsPerRun(100, func() {
		out.Reset()
		tab.Encode(out)
	}); avg != 0 {
		t.Errorf("Encode of a sealed table allocates %.1f times, want 0", avg)
	}
}
