// Package buffer implements the typed message buffers used by the Nexus
// communication core.
//
// A Buffer is the unit of data handed to a remote service request (RSR): the
// sender packs typed values into a Buffer, the buffer travels over whatever
// communication method the startpoint selects, and the handler unpacks the
// same sequence of values at the endpoint. The pack/unpack API mirrors the
// nexus_put_*/nexus_get_* functions of the original Nexus runtime.
//
// Buffers carry a one-byte format tag so that heterogeneous peers can
// exchange data: values are packed in the sender's native byte order and the
// receiver byte-swaps only when formats differ ("receiver makes right"),
// avoiding conversion cost on homogeneous links.
package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Format identifies the byte order used for multi-byte values in a buffer.
type Format byte

const (
	// LittleEndian marks x86-style little-endian encoding.
	LittleEndian Format = 0
	// BigEndian marks network-order big-endian encoding.
	BigEndian Format = 1
)

// NativeFormat is the format used for newly created buffers. Go does not
// expose host endianness directly; we detect it once at init.
var NativeFormat = detectNative()

func detectNative() Format {
	var x uint16 = 1
	b := make([]byte, 2)
	binary.NativeEndian.PutUint16(b, x)
	if b[0] == 1 {
		return LittleEndian
	}
	return BigEndian
}

func (f Format) String() string {
	switch f {
	case LittleEndian:
		return "little-endian"
	case BigEndian:
		return "big-endian"
	default:
		return fmt.Sprintf("format(%d)", byte(f))
	}
}

func (f Format) order() binary.ByteOrder {
	if f == BigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// Errors returned by unpack operations.
var (
	// ErrUnderflow reports an attempt to read past the end of a buffer.
	ErrUnderflow = errors.New("buffer: read past end of buffer")
	// ErrBadFormat reports an unknown format tag in an encoded buffer.
	ErrBadFormat = errors.New("buffer: unknown format tag")
	// ErrTooLarge reports a length prefix that exceeds the remaining data.
	ErrTooLarge = errors.New("buffer: length prefix exceeds remaining data")
)

// Buffer is a typed pack/unpack message buffer.
//
// The zero value is an empty buffer in the native format, ready to pack.
// Buffers are not safe for concurrent use.
type Buffer struct {
	format Format
	data   []byte
	pos    int // read cursor
	err    error
}

// New returns an empty buffer in the native format with the given capacity
// hint.
func New(capacity int) *Buffer {
	return &Buffer{format: NativeFormat, data: make([]byte, 0, capacity)}
}

// NewFormat returns an empty buffer that packs in the given format.
func NewFormat(f Format, capacity int) *Buffer {
	return &Buffer{format: f, data: make([]byte, 0, capacity)}
}

// FromBytes wraps an encoded payload (as produced by Encode) for unpacking.
func FromBytes(p []byte) (*Buffer, error) {
	if len(p) < 1 {
		return nil, ErrUnderflow
	}
	f := Format(p[0])
	if f != LittleEndian && f != BigEndian {
		return nil, ErrBadFormat
	}
	return &Buffer{format: f, data: p[1:]}, nil
}

// SetEncoded replaces b's contents with a copy of the encoded payload p (as
// produced by Encode) and rewinds the read cursor. The copy is owned by b,
// so p may be a borrowed frame. b's existing storage is reused when it fits.
func (b *Buffer) SetEncoded(p []byte) error {
	if len(p) < 1 {
		return ErrUnderflow
	}
	f := Format(p[0])
	if f != LittleEndian && f != BigEndian {
		return ErrBadFormat
	}
	b.format = f
	b.data = append(b.data[:0], p[1:]...)
	b.pos = 0
	b.err = nil
	return nil
}

// Decode is FromBytes returning a Buffer value instead of a pointer: a
// decoder that unpacks and discards in one frame's scope can keep the Buffer
// on its stack. The result aliases p.
func Decode(p []byte) (Buffer, error) {
	if len(p) < 1 {
		return Buffer{}, ErrUnderflow
	}
	f := Format(p[0])
	if f != LittleEndian && f != BigEndian {
		return Buffer{}, ErrBadFormat
	}
	return Buffer{format: f, data: p[1:]}, nil
}

// Encode returns the wire form of the buffer: a one-byte format tag followed
// by the packed bytes. The returned slice aliases the buffer's storage; the
// caller must not modify the buffer while the slice is in use.
func (b *Buffer) Encode() []byte {
	out := make([]byte, 1+len(b.data))
	out[0] = byte(b.format)
	copy(out[1:], b.data)
	return out
}

// EncodedLen reports the number of bytes Encode/EncodeTo produce: the format
// tag plus the packed payload.
func (b *Buffer) EncodedLen() int { return 1 + len(b.data) }

// EncodeTo writes the wire form of the buffer into dst, which must have
// length at least EncodedLen, and returns the number of bytes written. This
// is the fast-path alternative to Encode: the RSR sender lays the payload
// straight into its (pooled) frame scratch, so a send costs exactly one
// payload copy instead of an allocate-copy-copy chain.
func (b *Buffer) EncodeTo(dst []byte) int {
	dst[0] = byte(b.format)
	return 1 + copy(dst[1:], b.data)
}

// Format reports the byte order of values in the buffer.
func (b *Buffer) Format() Format { return b.format }

// Len reports the number of packed payload bytes (excluding the format tag).
func (b *Buffer) Len() int { return len(b.data) }

// Remaining reports the number of unread payload bytes.
func (b *Buffer) Remaining() int { return len(b.data) - b.pos }

// Err returns the first error encountered by an unpack operation, if any.
func (b *Buffer) Err() error { return b.err }

// Reset discards the contents and read cursor, keeping the allocation.
func (b *Buffer) Reset() {
	b.data = b.data[:0]
	b.pos = 0
	b.err = nil
}

// Rewind moves the read cursor back to the start without discarding data.
func (b *Buffer) Rewind() { b.pos = 0; b.err = nil }

// Bytes returns the raw packed payload (no format tag). The slice aliases
// internal storage.
func (b *Buffer) Bytes() []byte { return b.data }

// Clone returns a deep copy of the buffer, including the read cursor.
func (b *Buffer) Clone() *Buffer {
	c := &Buffer{format: b.format, pos: b.pos, err: b.err}
	c.data = append([]byte(nil), b.data...)
	return c
}

// grow extends the packed bytes by n and returns them for the caller to
// overwrite in full. When they fit the capacity only the length changes, so
// a put into a sized buffer writes no pointer (and pays no GC write barrier).
func (b *Buffer) grow(n int) []byte {
	l := len(b.data)
	if n <= cap(b.data)-l {
		b.data = b.data[:l+n]
	} else {
		b.data = append(b.data, make([]byte, n)...)
	}
	return b.data[l : l+n]
}

func (b *Buffer) take(n int) ([]byte, bool) {
	if b.err != nil {
		return nil, false
	}
	if b.pos+n > len(b.data) {
		b.err = ErrUnderflow
		return nil, false
	}
	p := b.data[b.pos : b.pos+n]
	b.pos += n
	return p, true
}

// PutBool packs a boolean as a single byte.
func (b *Buffer) PutBool(v bool) {
	if v {
		b.grow(1)[0] = 1
	} else {
		b.grow(1)[0] = 0
	}
}

// Bool unpacks a boolean.
func (b *Buffer) Bool() bool {
	p, ok := b.take(1)
	return ok && p[0] != 0
}

// PutByte packs a single byte.
func (b *Buffer) PutByte(v byte) { b.grow(1)[0] = v }

// Byte unpacks a single byte.
func (b *Buffer) Byte() byte {
	p, ok := b.take(1)
	if !ok {
		return 0
	}
	return p[0]
}

// The fixed-width puts and gets branch on the format and call the concrete
// binary.LittleEndian or binary.BigEndian method rather than going through
// Format.order's interface, so that they inline: a gossip digest reads three
// uint64s per entry.

// PutUint16 packs a uint16 in the buffer's format.
func (b *Buffer) PutUint16(v uint16) {
	p := b.grow(2)
	if b.format == BigEndian {
		binary.BigEndian.PutUint16(p, v)
	} else {
		binary.LittleEndian.PutUint16(p, v)
	}
}

// Uint16 unpacks a uint16.
func (b *Buffer) Uint16() uint16 {
	p, ok := b.take(2)
	switch {
	case !ok:
		return 0
	case b.format == BigEndian:
		return binary.BigEndian.Uint16(p)
	default:
		return binary.LittleEndian.Uint16(p)
	}
}

// PutUint32 packs a uint32 in the buffer's format.
func (b *Buffer) PutUint32(v uint32) {
	p := b.grow(4)
	if b.format == BigEndian {
		binary.BigEndian.PutUint32(p, v)
	} else {
		binary.LittleEndian.PutUint32(p, v)
	}
}

// Uint32 unpacks a uint32.
func (b *Buffer) Uint32() uint32 {
	p, ok := b.take(4)
	switch {
	case !ok:
		return 0
	case b.format == BigEndian:
		return binary.BigEndian.Uint32(p)
	default:
		return binary.LittleEndian.Uint32(p)
	}
}

// PutUint64 packs a uint64 in the buffer's format.
func (b *Buffer) PutUint64(v uint64) {
	p := b.grow(8)
	if b.format == BigEndian {
		binary.BigEndian.PutUint64(p, v)
	} else {
		binary.LittleEndian.PutUint64(p, v)
	}
}

// Uint64 unpacks a uint64.
func (b *Buffer) Uint64() uint64 {
	p, ok := b.take(8)
	switch {
	case !ok:
		return 0
	case b.format == BigEndian:
		return binary.BigEndian.Uint64(p)
	default:
		return binary.LittleEndian.Uint64(p)
	}
}

// PutInt32 packs an int32 in the buffer's format.
func (b *Buffer) PutInt32(v int32) { b.PutUint32(uint32(v)) }

// Int32 unpacks an int32.
func (b *Buffer) Int32() int32 { return int32(b.Uint32()) }

// PutInt64 packs an int64 in the buffer's format.
func (b *Buffer) PutInt64(v int64) { b.PutUint64(uint64(v)) }

// Int64 unpacks an int64.
func (b *Buffer) Int64() int64 { return int64(b.Uint64()) }

// PutInt packs an int as a 64-bit value.
func (b *Buffer) PutInt(v int) { b.PutInt64(int64(v)) }

// Int unpacks an int packed with PutInt.
func (b *Buffer) Int() int { return int(b.Int64()) }

// PutFloat32 packs a float32 in the buffer's format.
func (b *Buffer) PutFloat32(v float32) { b.PutUint32(math.Float32bits(v)) }

// Float32 unpacks a float32.
func (b *Buffer) Float32() float32 { return math.Float32frombits(b.Uint32()) }

// PutFloat64 packs a float64 in the buffer's format.
func (b *Buffer) PutFloat64(v float64) { b.PutUint64(math.Float64bits(v)) }

// Float64 unpacks a float64.
func (b *Buffer) Float64() float64 { return math.Float64frombits(b.Uint64()) }

// PutString packs a length-prefixed string.
func (b *Buffer) PutString(s string) {
	b.PutUint32(uint32(len(s)))
	copy(b.grow(len(s)), s)
}

// String unpacks a length-prefixed string.
func (b *Buffer) String() string {
	n := int(b.Uint32())
	if b.err != nil {
		return ""
	}
	if n > b.Remaining() {
		b.err = ErrTooLarge
		return ""
	}
	p, ok := b.take(n)
	if !ok {
		return ""
	}
	return string(p)
}

// PutBytes packs a length-prefixed byte slice.
func (b *Buffer) PutBytes(p []byte) {
	b.PutUint32(uint32(len(p)))
	copy(b.grow(len(p)), p)
}

// BytesValue unpacks a length-prefixed byte slice. The result is a copy.
func (b *Buffer) BytesValue() []byte {
	n := int(b.Uint32())
	if b.err != nil {
		return nil
	}
	if n > b.Remaining() {
		b.err = ErrTooLarge
		return nil
	}
	p, ok := b.take(n)
	if !ok {
		return nil
	}
	return append([]byte(nil), p...)
}

// BytesView unpacks a length-prefixed byte slice without copying. The result
// aliases the buffer's storage: it is valid only as long as the buffer's
// backing bytes are, which for a delivery-borrowed buffer means only until
// the handler returns.
func (b *Buffer) BytesView() []byte {
	n := int(b.Uint32())
	if b.err != nil {
		return nil
	}
	if n > b.Remaining() {
		b.err = ErrTooLarge
		return nil
	}
	p, ok := b.take(n)
	if !ok {
		return nil
	}
	return p
}

// PutEncoded packs another buffer's wire form (format tag plus payload) as a
// length-prefixed value — the same bytes as PutBytes(src.Encode()) without
// the intermediate allocation. A nil src packs an empty native-format buffer.
func (b *Buffer) PutEncoded(src *Buffer) {
	if src == nil {
		b.PutUint32(1)
		b.PutByte(byte(NativeFormat))
		return
	}
	b.PutUint32(uint32(src.EncodedLen()))
	b.PutByte(byte(src.format))
	copy(b.grow(len(src.data)), src.data)
}

// PutFloat64s packs a length-prefixed vector of float64 values.
func (b *Buffer) PutFloat64s(v []float64) {
	b.PutUint32(uint32(len(v)))
	p := b.grow(8 * len(v))
	ord := b.format.order()
	for i, x := range v {
		ord.PutUint64(p[8*i:], math.Float64bits(x))
	}
}

// Float64s unpacks a vector packed with PutFloat64s.
func (b *Buffer) Float64s() []float64 {
	n := int(b.Uint32())
	if b.err != nil {
		return nil
	}
	if 8*n > b.Remaining() {
		b.err = ErrTooLarge
		return nil
	}
	p, ok := b.take(8 * n)
	if !ok {
		return nil
	}
	ord := b.format.order()
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(ord.Uint64(p[8*i:]))
	}
	return out
}

// PutInt32s packs a length-prefixed vector of int32 values.
func (b *Buffer) PutInt32s(v []int32) {
	b.PutUint32(uint32(len(v)))
	p := b.grow(4 * len(v))
	ord := b.format.order()
	for i, x := range v {
		ord.PutUint32(p[4*i:], uint32(x))
	}
}

// Int32s unpacks a vector packed with PutInt32s.
func (b *Buffer) Int32s() []int32 {
	n := int(b.Uint32())
	if b.err != nil {
		return nil
	}
	if 4*n > b.Remaining() {
		b.err = ErrTooLarge
		return nil
	}
	p, ok := b.take(4 * n)
	if !ok {
		return nil
	}
	ord := b.format.order()
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(ord.Uint32(p[4*i:]))
	}
	return out
}

// PutRaw appends raw bytes with no length prefix. The receiver must know the
// length (e.g. fixed-size payloads in microbenchmarks).
func (b *Buffer) PutRaw(p []byte) { copy(b.grow(len(p)), p) }

// Raw unpacks n raw bytes without a length prefix. The result aliases the
// buffer's storage.
func (b *Buffer) Raw(n int) []byte {
	p, ok := b.take(n)
	if !ok {
		return nil
	}
	return p
}
