package udp

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"nexus/internal/transport"
)

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

func (c *collect) frame(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[i]
}

// newModule builds a module of the named method through the registry, as a
// context does.
func newModule[M transport.Module](method string, p transport.Params) M {
	m, err := transport.Default.New(method, p)
	if err != nil {
		panic(err)
	}
	return m.(M)
}

// initOn initializes m as context ctx delivering to sink and closes it when
// the test ends.
func initOn[M transport.Module](t *testing.T, m M, ctx transport.ContextID, sink transport.Sink) (M, transport.Descriptor) {
	t.Helper()
	d, err := m.Init(transport.Env{Context: ctx, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, *d
}

// methods lists both datagram modules for the tests that hold for each.
var methods = []struct {
	name, other string
	new         func(transport.Params) transport.Module
}{
	{Name, ReliableName, func(p transport.Params) transport.Module { return newModule[*Module](Name, p) }},
	{ReliableName, Name, func(p transport.Params) transport.Module { return newModule[*Reliable](ReliableName, p) }},
}

func TestSendPollRoundTrip(t *testing.T) {
	sink := &collect{}
	recv, d := initOn(t, newModule[*Module](Name, nil), 1, sink)
	send, _ := initOn(t, newModule[*Module](Name, nil), 2, &collect{})

	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := [][]byte{[]byte("dgram-1"), []byte("dgram-2"), bytes.Repeat([]byte{9}, 8000)}
	for _, f := range want {
		if err := c.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sink.count() < len(want) {
		if _, err := recv.Poll(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if sink.count() != len(want) {
		t.Fatalf("received %d datagrams, want %d", sink.count(), len(want))
	}
	for i, f := range sink.frames {
		if !bytes.Equal(f, want[i]) {
			t.Errorf("datagram %d mismatch (%d vs %d bytes)", i, len(f), len(want[i]))
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	for _, mt := range methods {
		t.Run(mt.name, func(t *testing.T) {
			_, d := initOn(t, mt.new(nil), 1, &collect{})
			send, _ := initOn(t, mt.new(nil), 2, &collect{})
			c, err := send.Dial(d)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Send(make([]byte, MaxDatagram+1))
			if !errors.Is(err, ErrTooLarge) || !errors.Is(err, transport.ErrTooLarge) {
				t.Errorf("oversize Send err = %v, want ErrTooLarge", err)
			}
		})
	}
}

func TestLossInjection(t *testing.T) {
	sink := &collect{}
	recv, d := initOn(t, newModule[*Module](Name, nil), 1, sink)
	send, _ := initOn(t, newModule[*Module](Name, transport.Params{"loss": "0.5", "seed": "7"}), 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Allow arrival, then drain.
	time.Sleep(50 * time.Millisecond)
	for {
		got, err := recv.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			break
		}
	}
	got := sink.count()
	if got == 0 || got == n {
		t.Errorf("with 50%% loss received %d/%d datagrams; want strictly between", got, n)
	}
	// Deterministic: a second identical sender drops the same pattern.
	send2, _ := initOn(t, newModule[*Module](Name, transport.Params{"loss": "0.5", "seed": "7"}), 3, &collect{})
	c2, err := send2.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sink.mu.Lock()
	sink.frames = nil
	sink.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := c2.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	for {
		k, err := recv.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			break
		}
	}
	if got2 := sink.count(); got2 != got {
		t.Errorf("same seed dropped differently: %d vs %d", got2, got)
	}
}

func TestApplicable(t *testing.T) {
	for _, mt := range methods {
		t.Run(mt.name, func(t *testing.T) {
			m := mt.new(nil)
			rows := []struct {
				desc string
				d    transport.Descriptor
				want bool
			}{
				{"valid descriptor", transport.Descriptor{Method: mt.name, Attrs: map[string]string{"addr": "127.0.0.1:1"}}, true},
				{"tcp descriptor", transport.Descriptor{Method: "tcp", Attrs: map[string]string{"addr": "x"}}, false},
				{mt.other + " descriptor", transport.Descriptor{Method: mt.other, Attrs: map[string]string{"addr": "x"}}, false},
				{"missing addr", transport.Descriptor{Method: mt.name}, false},
			}
			for _, r := range rows {
				if got := m.Applicable(r.d); got != r.want {
					t.Errorf("%s: Applicable = %v, want %v", r.desc, got, r.want)
				}
			}
		})
	}
}

func TestLifecycleErrors(t *testing.T) {
	for _, mt := range methods {
		t.Run(mt.name, func(t *testing.T) {
			m := mt.new(nil)
			peer := transport.Descriptor{Method: mt.name, Attrs: map[string]string{"addr": "127.0.0.1:1"}}
			if _, err := m.Poll(); !errors.Is(err, transport.ErrNotInitialized) {
				t.Errorf("Poll before Init: %v", err)
			}
			if _, err := m.Dial(peer); !errors.Is(err, transport.ErrNotInitialized) {
				t.Errorf("Dial before Init: %v", err)
			}
			if _, err := m.Init(transport.Env{Context: 1, Sink: &collect{}}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Init(transport.Env{Context: 1, Sink: &collect{}}); err == nil {
				t.Error("double Init succeeded")
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Poll(); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Poll after Close: %v", err)
			}
			if _, err := m.Dial(peer); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Dial after Close: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Errorf("double Close: %v", err)
			}
			if _, err := m.Poll(); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Poll after double Close: %v", err)
			}
		})
	}
}

func TestRegisteredInDefaultRegistry(t *testing.T) {
	for _, mt := range methods {
		t.Run(mt.name, func(t *testing.T) {
			if !transport.Default.Has(mt.name) {
				t.Fatalf("%s module not registered", mt.name)
			}
		})
	}
}
