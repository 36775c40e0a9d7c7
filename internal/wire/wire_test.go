package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func sample() *Frame {
	return &Frame{
		Type:         TypeRSR,
		DestContext:  7,
		DestEndpoint: 99,
		SrcContext:   3,
		Handler:      "climate.exchange",
		Payload:      []byte{1, 2, 3, 4, 5},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sample()
	enc := f.Encode()
	if len(enc) != f.EncodedLen() {
		t.Fatalf("len(Encode) = %d, EncodedLen = %d", len(enc), f.EncodedLen())
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.DestContext != f.DestContext ||
		got.DestEndpoint != f.DestEndpoint || got.SrcContext != f.SrcContext ||
		got.Handler != f.Handler || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestDecodeEmptyHandlerAndPayload(t *testing.T) {
	f := &Frame{Type: TypeControl, DestContext: 1}
	got, err := Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Handler != "" || len(got.Payload) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	enc := sample().Encode()

	if _, err := Decode(enc[:5]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[1] = 42
	if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
	// Every truncation of a valid frame must fail.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
	// Trailing garbage must fail.
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("Decode with trailing byte succeeded")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(typ byte, dc, de, sc uint64, handler string, payload []byte) bool {
		if len(handler) > MaxHandlerLen {
			handler = handler[:MaxHandlerLen]
		}
		in := &Frame{Type: typ, DestContext: dc, DestEndpoint: de, SrcContext: sc,
			Handler: handler, Payload: payload}
		got, err := Decode(in.Encode())
		if err != nil {
			return false
		}
		return got.Type == typ && got.DestContext == dc && got.DestEndpoint == de &&
			got.SrcContext == sc && got.Handler == handler &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// prefixed returns encoded behind the 4-byte big-endian length prefix stream
// transports put before every frame.
func prefixed(encoded []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(encoded))), encoded...)
}

func TestStreamWriteRead(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{
		sample().Encode(),
		(&Frame{Type: TypeForward, DestContext: 2}).Encode(),
		(&Frame{Type: TypeRSR, Handler: "h", Payload: bytes.Repeat([]byte{7}, 1000)}).Encode(),
	}
	for _, f := range frames {
		buf.Write(prefixed(f))
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Errorf("after all frames: %v, want EOF", err)
	}
}

func TestReadFrameTruncatedStream(t *testing.T) {
	data := prefixed(sample().Encode())
	// Cut mid-frame: ReadFrame must report an unexpected EOF, not hang or
	// return a partial frame.
	for _, cut := range []int{2, 4, 10, len(data) - 1} {
		_, err := ReadFrame(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Errorf("ReadFrame of %d/%d bytes succeeded", cut, len(data))
		}
	}
}

func TestReadFrameOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length prefix
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize: %v", err)
	}
}

func TestEncodeToReuse(t *testing.T) {
	f := sample()
	dst := make([]byte, f.EncodedLen())
	n := f.EncodeTo(dst)
	if n != f.EncodedLen() {
		t.Fatalf("EncodeTo wrote %d, want %d", n, f.EncodedLen())
	}
	if !bytes.Equal(dst, f.Encode()) {
		t.Error("EncodeTo differs from Encode")
	}
}
