package buffer

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestNativeFormatDetected(t *testing.T) {
	if NativeFormat != LittleEndian && NativeFormat != BigEndian {
		t.Fatalf("NativeFormat = %v, want little or big endian", NativeFormat)
	}
}

func TestEmptyBufferEncodeDecode(t *testing.T) {
	b := New(0)
	enc := b.Encode()
	if len(enc) != 1 {
		t.Fatalf("empty buffer encodes to %d bytes, want 1 (format tag)", len(enc))
	}
	d, err := FromBytes(enc)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if d.Len() != 0 || d.Remaining() != 0 {
		t.Fatalf("decoded empty buffer has Len=%d Remaining=%d", d.Len(), d.Remaining())
	}
}

func TestFromBytesErrors(t *testing.T) {
	if _, err := FromBytes(nil); err != ErrUnderflow {
		t.Errorf("FromBytes(nil) err = %v, want ErrUnderflow", err)
	}
	if _, err := FromBytes([]byte{99}); err != ErrBadFormat {
		t.Errorf("FromBytes(bad tag) err = %v, want ErrBadFormat", err)
	}
}

func TestScalarRoundTripBothFormats(t *testing.T) {
	for _, f := range []Format{LittleEndian, BigEndian} {
		b := NewFormat(f, 64)
		b.PutBool(true)
		b.PutByte(0xAB)
		b.PutUint16(0xBEEF)
		b.PutUint32(0xDEADBEEF)
		b.PutUint64(0x0123456789ABCDEF)
		b.PutInt32(-12345)
		b.PutInt64(-987654321)
		b.PutInt(42)
		b.PutFloat32(3.5)
		b.PutFloat64(-2.25)
		b.PutString("hello, nexus")

		d, err := FromBytes(b.Encode())
		if err != nil {
			t.Fatalf("format %v: FromBytes: %v", f, err)
		}
		if got := d.Bool(); got != true {
			t.Errorf("format %v: Bool = %v", f, got)
		}
		if got := d.Byte(); got != 0xAB {
			t.Errorf("format %v: Byte = %#x", f, got)
		}
		if got := d.Uint16(); got != 0xBEEF {
			t.Errorf("format %v: Uint16 = %#x", f, got)
		}
		if got := d.Uint32(); got != 0xDEADBEEF {
			t.Errorf("format %v: Uint32 = %#x", f, got)
		}
		if got := d.Uint64(); got != 0x0123456789ABCDEF {
			t.Errorf("format %v: Uint64 = %#x", f, got)
		}
		if got := d.Int32(); got != -12345 {
			t.Errorf("format %v: Int32 = %d", f, got)
		}
		if got := d.Int64(); got != -987654321 {
			t.Errorf("format %v: Int64 = %d", f, got)
		}
		if got := d.Int(); got != 42 {
			t.Errorf("format %v: Int = %d", f, got)
		}
		if got := d.Float32(); got != 3.5 {
			t.Errorf("format %v: Float32 = %v", f, got)
		}
		if got := d.Float64(); got != -2.25 {
			t.Errorf("format %v: Float64 = %v", f, got)
		}
		if got := d.String(); got != "hello, nexus" {
			t.Errorf("format %v: String = %q", f, got)
		}
		if err := d.Err(); err != nil {
			t.Errorf("format %v: Err = %v", f, err)
		}
		if d.Remaining() != 0 {
			t.Errorf("format %v: %d bytes left over", f, d.Remaining())
		}
	}
}

// TestCrossFormatDecode packs in one byte order and checks that a receiver
// that decodes the wire form (which carries the format tag) recovers the
// original values — the heterogeneity story of the paper's buffer layer.
func TestCrossFormatDecode(t *testing.T) {
	for _, packer := range []Format{LittleEndian, BigEndian} {
		b := NewFormat(packer, 16)
		b.PutUint32(0x01020304)
		b.PutFloat64(math.Pi)
		d, err := FromBytes(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Uint32(); got != 0x01020304 {
			t.Errorf("packer %v: Uint32 = %#x, want 0x01020304", packer, got)
		}
		if got := d.Float64(); got != math.Pi {
			t.Errorf("packer %v: Float64 = %v, want pi", packer, got)
		}
	}
}

func TestUnderflowSticky(t *testing.T) {
	b := New(0)
	b.PutUint16(7)
	d, err := FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Uint16()
	if got := d.Uint32(); got != 0 {
		t.Errorf("underflowing Uint32 = %d, want 0", got)
	}
	if d.Err() != ErrUnderflow {
		t.Errorf("Err = %v, want ErrUnderflow", d.Err())
	}
	// Error is sticky: subsequent reads keep failing even if bytes remain.
	if got := d.Byte(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
}

func TestStringTooLarge(t *testing.T) {
	b := New(0)
	b.PutUint32(1 << 30) // bogus huge length
	d, err := FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if d.Err() != ErrTooLarge {
		t.Errorf("Err = %v, want ErrTooLarge", d.Err())
	}
}

func TestBytesValueCopies(t *testing.T) {
	b := New(0)
	b.PutBytes([]byte{1, 2, 3})
	d, err := FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	v := d.BytesValue()
	if !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("BytesValue = %v", v)
	}
	v[0] = 99
	d.Rewind()
	v2 := d.BytesValue()
	if v2[0] != 1 {
		t.Errorf("BytesValue result aliases buffer storage")
	}
}

func TestResetAndRewind(t *testing.T) {
	b := New(0)
	b.PutInt(5)
	d, _ := FromBytes(b.Encode())
	if d.Int() != 5 {
		t.Fatal("first read failed")
	}
	d.Rewind()
	if d.Int() != 5 {
		t.Fatal("read after Rewind failed")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
}

func TestClone(t *testing.T) {
	b := New(0)
	b.PutString("abc")
	c := b.Clone()
	b.PutString("def") // must not affect the clone
	d, _ := FromBytes(c.Encode())
	if got := d.String(); got != "abc" {
		t.Errorf("clone decoded %q, want abc", got)
	}
	if d.Remaining() != 0 {
		t.Errorf("clone has %d trailing bytes", d.Remaining())
	}
}

func TestRawRoundTrip(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5}
	b := New(0)
	b.PutRaw(payload)
	d, _ := FromBytes(b.Encode())
	got := d.Raw(len(payload))
	if !bytes.Equal(got, payload) {
		t.Errorf("Raw = %v, want %v", got, payload)
	}
	if d.Raw(1) != nil {
		t.Error("Raw past end should return nil")
	}
	if d.Err() != ErrUnderflow {
		t.Errorf("Err = %v, want ErrUnderflow", d.Err())
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		b := New(len(s) + 8)
		b.PutString(s)
		d, err := FromBytes(b.Encode())
		if err != nil {
			return false
		}
		return d.String() == s && d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyBytesRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		b := New(len(p) + 8)
		b.PutBytes(p)
		d, err := FromBytes(b.Encode())
		if err != nil {
			return false
		}
		return bytes.Equal(d.BytesValue(), p) && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyScalarSequenceRoundTrip(t *testing.T) {
	f := func(a uint16, b32 uint32, c uint64, s string, fl float64, big bool) bool {
		format := LittleEndian
		if big {
			format = BigEndian
		}
		b := NewFormat(format, 64)
		b.PutUint16(a)
		b.PutUint32(b32)
		b.PutUint64(c)
		b.PutString(s)
		b.PutFloat64(fl)
		d, err := FromBytes(b.Encode())
		if err != nil {
			return false
		}
		okF := d.Float64
		gotA, gotB, gotC, gotS := d.Uint16(), d.Uint32(), d.Uint64(), d.String()
		gotFl := okF()
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		floatOK := gotFl == fl || (math.IsNaN(gotFl) && math.IsNaN(fl))
		return gotA == a && gotB == b32 && gotC == c && gotS == s && floatOK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFloat64sRoundTrip(t *testing.T) {
	f := func(v []float64, big bool) bool {
		format := LittleEndian
		if big {
			format = BigEndian
		}
		b := NewFormat(format, 8*len(v)+8)
		b.PutFloat64s(v)
		d, err := FromBytes(b.Encode())
		if err != nil {
			return false
		}
		got := d.Float64s()
		if d.Err() != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			same := got[i] == v[i] || (math.IsNaN(got[i]) && math.IsNaN(v[i]))
			if !same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyInt32sRoundTrip(t *testing.T) {
	f := func(v []int32) bool {
		b := New(4*len(v) + 8)
		b.PutInt32s(v)
		d, err := FromBytes(b.Encode())
		if err != nil {
			return false
		}
		got := d.Int32s()
		if d.Err() != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64sTruncatedFails(t *testing.T) {
	b := New(0)
	b.PutUint32(10) // claims 10 float64s, provides none
	d, _ := FromBytes(b.Encode())
	if got := d.Float64s(); got != nil {
		t.Errorf("Float64s on truncated buffer = %v, want nil", got)
	}
	if d.Err() != ErrTooLarge {
		t.Errorf("Err = %v, want ErrTooLarge", d.Err())
	}
}
