package transport

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"nexus/internal/buffer"
)

// Table is an ordered communication descriptor table. The order encodes
// selection preference: automatic selection scans the table in order and uses
// the first applicable method, so placing the fastest method first yields the
// paper's "fastest first" policy. Users influence selection by reordering,
// adding, or deleting entries.
type Table struct {
	Entries []Descriptor
}

// NewTable returns a table over copies of the given descriptors, in order,
// with each one's attributes sealed.
func NewTable(entries ...Descriptor) *Table {
	t := &Table{Entries: make([]Descriptor, len(entries))}
	for i, e := range entries {
		t.Entries[i] = e.sealed()
	}
	return t
}

// Clone returns a deep copy of the table whose descriptors the caller may
// edit: each has its own Attrs map (Descriptor.Clone).
func (t *Table) Clone() *Table {
	c := &Table{Entries: make([]Descriptor, len(t.Entries))}
	for i, e := range t.Entries {
		c.Entries[i] = e.Clone()
	}
	return c
}

// Len reports the number of descriptors.
func (t *Table) Len() int { return len(t.Entries) }

// Find returns the first descriptor for the named method and whether one
// exists.
func (t *Table) Find(method string) (Descriptor, bool) {
	for _, e := range t.Entries {
		if e.Method == method {
			return e, true
		}
	}
	return Descriptor{}, false
}

// Add appends a descriptor to the end of the table (lowest preference), with
// its attributes sealed.
func (t *Table) Add(d Descriptor) { t.Entries = append(t.Entries, d.sealed()) }

// Remove deletes every descriptor for the named method, reporting whether any
// was removed.
func (t *Table) Remove(method string) bool {
	kept := t.Entries[:0]
	removed := false
	for _, e := range t.Entries {
		if e.Method == method {
			removed = true
			continue
		}
		kept = append(kept, e)
	}
	t.Entries = kept
	return removed
}

// Promote moves the first descriptor for the named method to the front of the
// table (highest preference), reporting whether the method was present.
func (t *Table) Promote(method string) bool {
	for i, e := range t.Entries {
		if e.Method == method {
			copy(t.Entries[1:i+1], t.Entries[:i])
			t.Entries[0] = e
			return true
		}
	}
	return false
}

// Reorder rearranges the table so that methods appear in the given order;
// methods not named keep their relative order after the named ones. Unknown
// names are ignored.
func (t *Table) Reorder(methods ...string) {
	rank := make(map[string]int, len(methods))
	for i, m := range methods {
		rank[m] = i
	}
	sort.SliceStable(t.Entries, func(i, j int) bool {
		ri, iok := rank[t.Entries[i].Method]
		rj, jok := rank[t.Entries[j].Method]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		default:
			return false
		}
	})
}

// Methods lists the method names in table order.
func (t *Table) Methods() []string {
	out := make([]string, len(t.Entries))
	for i, e := range t.Entries {
		out[i] = e.Method
	}
	return out
}

func (t *Table) String() string {
	return "[" + strings.Join(t.Methods(), ",") + "]"
}

// Encode packs the table into the buffer. The encoding is the mobile
// representation that travels with a startpoint: for wide-area links the few
// tens of bytes are insignificant, and tightly coupled configurations can
// omit the table entirely (see core's lightweight startpoints).
//
// The layout is a version byte and a uvarint entry count, then per entry
// the method name (uvarint length and bytes), the context as a uvarint, and
// the attribute block (attrs.go). It does not depend on the buffer's byte
// order, and it is canonical: equal tables encode identically. A sealed
// descriptor's block is copied as it is; only an entry whose Attrs map is
// set is sealed (and its keys sorted) on the way.
func (t *Table) Encode(b *buffer.Buffer) {
	b.PutByte(tableVersion)
	putUvarint(b, uint64(len(t.Entries)))
	for _, e := range t.Entries {
		putUvarint(b, uint64(len(e.Method)))
		b.PutRaw([]byte(e.Method))
		putUvarint(b, uint64(e.Context))
		b.PutRaw([]byte(e.AttrBlock()))
	}
}

// EncodedLen reports the number of bytes Encode packs.
func (t *Table) EncodedLen() int {
	n := 1 + uvarintLen(uint64(len(t.Entries)))
	for _, e := range t.Entries {
		n += uvarintLen(uint64(len(e.Method))) + len(e.Method) + uvarintLen(uint64(e.Context)) + len(e.AttrBlock())
	}
	return n
}

func putUvarint(b *buffer.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.PutRaw(binary.AppendUvarint(tmp[:0], v))
}

// DecodeTable unpacks a table encoded with Encode. The bytes are validated
// before anything is allocated by them, so a hostile or truncated encoding
// fails cleanly instead of panicking or over-allocating. A decoded table is
// three allocations whatever its size: the Table, its Entries, and one
// string holding the table's bytes, of which every method name and
// attribute block is a substring.
func DecodeTable(b *buffer.Buffer) (*Table, error) {
	rest := b.Bytes()[b.Len()-b.Remaining():]
	n, err := walkTable(rest, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding table: %w", err)
	}
	t := &Table{}
	if _, err := walkTable(string(b.Raw(n)), t); err != nil {
		panic("transport: a validated table failed to decode: " + err.Error())
	}
	return t, nil
}

// TableLen validates the encoded table at the head of p, as DecodeTable
// would, and returns its length without allocating: a receiver that skips a
// table it has no use for still rejects one it could not have decoded.
func TableLen(p []byte) (int, error) {
	n, err := walkTable(p, nil)
	if err != nil {
		return 0, fmt.Errorf("transport: decoding table: %w", err)
	}
	return n, nil
}

// EncodedPrefix reports whether p begins with the table's encoding (Encode)
// and, if it does, how long that encoding is. It compares in place, so a
// table of sealed descriptors allocates nothing: a receiver recognises a
// table it already holds from the bytes, without decoding them. The layout
// does not depend on byte order, so neither does the answer.
func (t *Table) EncodedPrefix(p []byte) (int, bool) {
	m := prefixMatcher{p: p, ok: len(p) > 0 && p[0] == tableVersion, off: 1}
	m.uvarint(uint64(len(t.Entries)))
	for i := 0; m.ok && i < len(t.Entries); i++ {
		e := &t.Entries[i]
		m.uvarint(uint64(len(e.Method)))
		m.bytes(e.Method)
		m.uvarint(uint64(e.Context))
		m.bytes(e.AttrBlock())
	}
	return m.off, m.ok
}

// prefixMatcher walks p, matching expected bytes at off; the first mismatch
// sticks, as a buffer's first unpack error does.
type prefixMatcher struct {
	p   []byte
	off int
	ok  bool
}

func (m *prefixMatcher) bytes(s string) {
	if m.ok && len(m.p)-m.off >= len(s) && string(m.p[m.off:m.off+len(s)]) == s {
		m.off += len(s)
	} else {
		m.ok = false
	}
}

func (m *prefixMatcher) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	m.bytes(string(binary.AppendUvarint(tmp[:0], v)))
}

// Equal reports whether two tables hold identical descriptors in the same
// order.
func (t *Table) Equal(o *Table) bool {
	if len(t.Entries) != len(o.Entries) {
		return false
	}
	for i := range t.Entries {
		if !t.Entries[i].Equal(o.Entries[i]) {
			return false
		}
	}
	return true
}
