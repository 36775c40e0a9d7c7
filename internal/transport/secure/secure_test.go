package secure

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"nexus/internal/transport"
	_ "nexus/internal/transport/tcp"
	_ "nexus/internal/transport/udp"
)

const testKey = "000102030405060708090a0b0c0d0e0f" // 16 bytes, hex

type collect struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collect) Deliver(f []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), f...)) // Deliver borrows f
	c.mu.Unlock()
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func newSecure(t *testing.T, params transport.Params) *Module {
	t.Helper()
	if params == nil {
		params = transport.Params{}
	}
	if _, ok := params["key"]; !ok {
		params["key"] = testKey
	}
	m, err := transport.Default.New(Name, params)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*Module)
}

func TestEncryptedRoundTrip(t *testing.T) {
	sink := &collect{}
	recv := newSecure(t, nil)
	d, err := recv.Init(transport.Env{Context: 1, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if d.Method != Name || d.Attr("inner") != "tcp" {
		t.Fatalf("descriptor = %v", d)
	}

	send := newSecure(t, nil)
	if _, err := send.Init(transport.Env{Context: 2, Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	c, err := send.Dial(*d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := []byte("secret payload over the wide area")
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() == 0 && time.Now().Before(deadline) {
		if _, err := recv.Poll(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if sink.count() != 1 || !bytes.Equal(sink.frames[0], want) {
		t.Fatalf("got %q", sink.frames)
	}
}

func TestCiphertextOnWire(t *testing.T) {
	// Dial the secure endpoint with a PLAIN tcp module: the bytes that
	// arrive must not contain the plaintext (and must fail authentication,
	// never reaching the application sink).
	sink := &collect{}
	recv := newSecure(t, nil)
	d, err := recv.Init(transport.Env{Context: 1, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	plainTCP, err := transport.Default.New("tcp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plainTCP.Init(transport.Env{Context: 3, Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	defer plainTCP.Close()
	inner := d.Clone()
	inner.Method = "tcp"
	delete(inner.Attrs, "inner")
	c, err := plainTCP.Dial(inner)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("injected plaintext")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for recv.Dropped() == 0 && time.Now().Before(deadline) {
		if _, err := recv.Poll(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if recv.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1 (forged frame rejected)", recv.Dropped())
	}
	if sink.count() != 0 {
		t.Errorf("forged frame reached the application: %q", sink.frames)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	sink := &collect{}
	recv := newSecure(t, nil)
	d, err := recv.Init(transport.Env{Context: 1, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	send := newSecure(t, transport.Params{"key": "ffffffffffffffffffffffffffffffff"})
	if _, err := send.Init(transport.Env{Context: 2, Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	c, err := send.Dial(*d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("mismatched")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for recv.Dropped() == 0 && time.Now().Before(deadline) {
		recv.Poll()
		time.Sleep(time.Millisecond)
	}
	if recv.Dropped() != 1 || sink.count() != 0 {
		t.Errorf("wrong-key frame: dropped=%d delivered=%d", recv.Dropped(), sink.count())
	}
}

func TestApplicability(t *testing.T) {
	m := newSecure(t, nil)
	if _, err := m.Init(transport.Env{Context: 1, Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	good := transport.Descriptor{Method: Name, Context: 2, Attrs: map[string]string{"inner": "tcp", "addr": "127.0.0.1:1"}}
	if !m.Applicable(good) {
		t.Error("valid secure descriptor not applicable")
	}
	wrongInner := good.Clone()
	wrongInner.Attrs["inner"] = "udp"
	if m.Applicable(wrongInner) {
		t.Error("descriptor with different inner method applicable")
	}
	plain := good.Clone()
	plain.Method = "tcp"
	if m.Applicable(plain) {
		t.Error("plain descriptor applicable to secure module")
	}
	if _, err := m.Dial(plain); !errors.Is(err, transport.ErrNotApplicable) {
		t.Errorf("Dial(plain) = %v", err)
	}
}

func TestBadKeyParameters(t *testing.T) {
	for _, params := range []transport.Params{
		{},                        // missing
		{"key": "xyz"},            // not hex
		{"key": "00ff"},           // wrong length
		{"key": testKey + "0011"}, // 18 bytes
	} {
		m, err := transport.Default.New(Name, params)
		if !errors.Is(err, ErrNoKey) || !errors.Is(err, transport.ErrBadParam) {
			t.Errorf("params %v: New = %v, %v; want ErrNoKey, a bad parameter", params, m, err)
		}
	}
}

func TestInnerUDP(t *testing.T) {
	sink := &collect{}
	recv := newSecure(t, transport.Params{"inner": "udp"})
	d, err := recv.Init(transport.Env{Context: 1, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if d.Attr("inner") != "udp" {
		t.Fatalf("descriptor = %v", d)
	}
	send := newSecure(t, transport.Params{"inner": "udp"})
	if _, err := send.Init(transport.Env{Context: 2, Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	c, err := send.Dial(*d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("encrypted datagram")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() == 0 && time.Now().Before(deadline) {
		recv.Poll()
		time.Sleep(time.Millisecond)
	}
	if sink.count() != 1 || string(sink.frames[0]) != "encrypted datagram" {
		t.Fatalf("got %q", sink.frames)
	}
}

func TestRegisteredInDefaultRegistry(t *testing.T) {
	if !transport.Default.Has(Name) {
		t.Fatal("secure module not registered")
	}
}
