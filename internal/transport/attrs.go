package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// A descriptor in a table holds its attributes as one immutable attribute
// block: a version byte, a uvarint pair count, then the pairs in strictly
// ascending key order, each key and each value a uvarint length followed by
// its bytes. Every uvarint is minimally encoded. Nothing in a block depends
// on a buffer's byte order, so a block decoded from one buffer is written
// into another by copying, and two descriptors carry the same attributes
// exactly when their blocks are equal. A descriptor with no attributes
// holds the empty string, which encodes as emptyBlock.

// Layout versions: the first byte of an encoded table and of every
// attribute block.
const (
	tableVersion = 2
	blockVersion = 1
)

// emptyBlock is the encoding of an attribute block with no pairs.
const emptyBlock = "\x01\x00"

// errOverlong reports a uvarint that is truncated, wider than 64 bits, or
// not minimally encoded.
var errOverlong = errors.New("bad uvarint")

// sealAttrs returns the attribute block for m, or "" when m is empty.
func sealAttrs(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	n := 1 + uvarintLen(uint64(len(m)))
	for k, v := range m {
		keys = append(keys, k)
		n += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(len(v))) + len(v)
	}
	slices.Sort(keys)
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteByte(blockVersion)
	writeUvarint(&sb, uint64(len(m)))
	for _, k := range keys {
		writeUvarint(&sb, uint64(len(k)))
		sb.WriteString(k)
		v := m[k]
		writeUvarint(&sb, uint64(len(v)))
		sb.WriteString(v)
	}
	return sb.String()
}

func writeUvarint(sb *strings.Builder, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	sb.Write(binary.AppendUvarint(tmp[:0], v))
}

// uvarintLen reports the encoded width of v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// blockPairs returns a sealed block's pair count and its pairs.
func blockPairs(block string) (int, string) {
	if block == "" {
		return 0, ""
	}
	n, w := uvarint(block[1:])
	return int(n), block[1+w:]
}

// nextPair splits the first pair off a sealed block's pairs.
func nextPair(pairs string) (k, v, rest string) {
	k, rest = cutString(pairs)
	v, rest = cutString(rest)
	return k, v, rest
}

func cutString(s string) (string, string) {
	n, w := uvarint(s)
	end := w + int(n)
	return s[w:end], s[end:]
}

// blockAttr looks key up in a sealed block ("" when absent).
func blockAttr(block, key string) string {
	n, pairs := blockPairs(block)
	for i := 0; i < n; i++ {
		var k, v string
		k, v, pairs = nextPair(pairs)
		if k == key {
			return v
		}
		if k > key {
			break
		}
	}
	return ""
}

// blockMatches reports whether a sealed block holds exactly the pairs of m.
func blockMatches(block string, m map[string]string) bool {
	n, pairs := blockPairs(block)
	if n != len(m) {
		return false
	}
	for i := 0; i < n; i++ {
		var k, v string
		k, v, pairs = nextPair(pairs)
		if mv, ok := m[k]; !ok || mv != v {
			return false
		}
	}
	return true
}

// byteSeq is what the table walker reads: a peer's bytes when it validates
// them, and the string copied from them when it builds the table.
type byteSeq interface{ ~string | ~[]byte }

// uvarint reads the minimally encoded uvarint at the head of p and returns it
// with its width; the width is 0 when p does not start with one.
func uvarint[T byteSeq](p T) (uint64, int) {
	var v uint64
	for i := 0; i < len(p) && i < binary.MaxVarintLen64; i++ {
		c := p[i]
		if i == binary.MaxVarintLen64-1 && c > 1 {
			return 0, 0 // wider than 64 bits
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, 0 // a redundant zero group
			}
			return v, i + 1
		}
	}
	return 0, 0
}

// lengthPrefixed reads a uvarint length and that many bytes at the head of p,
// returning the bytes and the total width.
func lengthPrefixed[T byteSeq](p T) (T, int, error) {
	n, w := uvarint(p)
	if w == 0 {
		return p[:0], 0, errOverlong
	}
	if n > uint64(len(p)-w) {
		return p[:0], 0, fmt.Errorf("length %d exceeds the %d bytes left", n, len(p)-w)
	}
	return p[w : w+int(n)], w + int(n), nil
}

// Minimum encoded sizes, which bound hostile counts before anything is
// allocated by them: an entry is at least a method length, a context and an
// empty block; a pair is at least two lengths.
const (
	minEntryBytes = 1 + 1 + len(emptyBlock)
	minPairBytes  = 2
)

// blockLen validates the attribute block at the head of p and returns its
// length.
func blockLen[T byteSeq](p T) (int, error) {
	if len(p) == 0 {
		return 0, errors.New("missing attribute block")
	}
	if p[0] != blockVersion {
		return 0, fmt.Errorf("attribute block version %d", p[0])
	}
	n, w := uvarint(p[1:])
	if w == 0 {
		return 0, fmt.Errorf("attribute count: %w", errOverlong)
	}
	off := 1 + w
	if n > uint64((len(p)-off)/minPairBytes) {
		return 0, fmt.Errorf("%d attributes cannot fit in %d bytes", n, len(p)-off)
	}
	var prev T
	for i := 0; i < int(n); i++ {
		k, kw, err := lengthPrefixed(p[off:])
		if err != nil {
			return 0, fmt.Errorf("attribute %d key: %w", i, err)
		}
		if i > 0 && string(k) <= string(prev) {
			return 0, fmt.Errorf("attribute %d key out of order", i)
		}
		_, vw, err := lengthPrefixed(p[off+kw:])
		if err != nil {
			return 0, fmt.Errorf("attribute %d value: %w", i, err)
		}
		prev = k
		off += kw + vw
	}
	return off, nil
}

// walkTable validates the encoded table at the head of p and returns its
// length. With t non-nil it also fills t.Entries, whose method names and
// attribute blocks are substrings of p: DecodeTable walks a peer's bytes
// once to validate and measure them, copies exactly that span into one
// string, and walks the string to build the table.
func walkTable[T byteSeq](p T, t *Table) (int, error) {
	if len(p) == 0 {
		return 0, errors.New("missing table")
	}
	if p[0] != tableVersion {
		return 0, fmt.Errorf("table version %d", p[0])
	}
	n, w := uvarint(p[1:])
	if w == 0 {
		return 0, fmt.Errorf("entry count: %w", errOverlong)
	}
	off := 1 + w
	if n > uint64((len(p)-off)/minEntryBytes) {
		return 0, fmt.Errorf("%d entries cannot fit in %d bytes", n, len(p)-off)
	}
	if t != nil {
		t.Entries = make([]Descriptor, 0, n)
	}
	for i := 0; i < int(n); i++ {
		method, mw, err := lengthPrefixed(p[off:])
		if err != nil {
			return 0, fmt.Errorf("entry %d method: %w", i, err)
		}
		off += mw
		ctx, cw := uvarint(p[off:])
		if cw == 0 {
			return 0, fmt.Errorf("entry %d context: %w", i, errOverlong)
		}
		off += cw
		bl, err := blockLen(p[off:])
		if err != nil {
			return 0, fmt.Errorf("entry %d: %w", i, err)
		}
		if t != nil {
			d := Descriptor{Method: string(method), Context: ContextID(ctx)}
			if bl > len(emptyBlock) {
				d.attrs = string(p[off : off+bl])
			}
			t.Entries = append(t.Entries, d)
		}
		off += bl
	}
	return off, nil
}
