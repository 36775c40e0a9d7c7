// Cross-transport conformance suite: every communication module — in-process,
// local, stream, datagram, reliable-datagram, encrypted, and simulated — is
// driven through the same behavioural checklist, so "implements
// transport.Module" means the same thing everywhere: frames round-trip intact
// up to the advertised size limit, oversized frames are refused with an error
// matching transport.ErrTooLarge without poisoning the connection, concurrent
// Send and Close do not race, and a closed connection can be replaced by
// redialing the same descriptor. The suite runs under -race in CI.
package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nexus/internal/simnet"
	"nexus/internal/transport"
	"nexus/internal/transport/inproc"
	"nexus/internal/transport/local"
	"nexus/internal/transport/secure"
	"nexus/internal/transport/shm"
	"nexus/internal/transport/tcp"
	"nexus/internal/transport/udp"
)

// collector is a Sink that copies delivered frames (Deliver borrows them).
type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) Deliver(f []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), f...))
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// has reports whether some delivered frame equals want.
func (c *collector) has(want []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames {
		if bytes.Equal(f, want) {
			return true
		}
	}
	return false
}

func (c *collector) reset() {
	c.mu.Lock()
	c.frames = nil
	c.mu.Unlock()
}

// pair is one transport's conformance fixture: a sending module, the
// descriptor it dials to reach the receiving side, and the receiver's sink.
type pair struct {
	send transport.Module
	desc transport.Descriptor
	sink *collector
	// poll lists the modules the background poller drives (delivery, ACKs).
	poll []transport.Module
	// reliable means every accepted Send is eventually delivered, exactly
	// once and in order. Datagram transports without a reliability layer
	// clear it, and the suite retries their sends.
	reliable bool
}

// startPoller drives the pair's modules from one background goroutine for the
// duration of the test, so blocking-window transports (rudp) never wedge a
// sender waiting for ACKs only a Poll can produce.
func (p *pair) startPoller(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
			}
			idle := true
			for _, m := range p.poll {
				if n, err := m.Poll(); err == nil && n > 0 {
					idle = false
				}
			}
			if idle {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	t.Cleanup(func() { close(done); <-exited })
}

func initFixture(t *testing.T, m transport.Module, env transport.Env) transport.Descriptor {
	t.Helper()
	d, err := m.Init(env)
	if err != nil {
		t.Fatalf("%s Init: %v", m.Name(), err)
	}
	t.Cleanup(func() { m.Close() })
	if d == nil {
		t.Fatalf("%s Init returned nil descriptor", m.Name())
	}
	return *d
}

const secureTestKey = "000102030405060708090a0b0c0d0e0f" // 16-byte AES key, both ends

// values checks p against the method's declaration, as the registry does
// before calling the factory.
func values(t *testing.T, method string, p transport.Params) transport.Values {
	t.Helper()
	v, err := transport.Default.Parse(method, p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// newModule builds a module of the named method through the registry, as a
// context does.
func newModule(t *testing.T, method string, p transport.Params) transport.Module {
	t.Helper()
	m, err := transport.Default.New(method, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fixtures builds one conformance pair per transport. Each call builds
// fresh modules on isolated media (unique inproc exchange, fresh simnet
// fabric, OS-assigned ports), so tests cannot observe each other.
var fixtures = []struct {
	name string
	make func(t *testing.T) *pair
}{
	{"inproc", func(t *testing.T) *pair {
		ex := inproc.NewExchange("conformance-" + t.Name())
		sink := &collector{}
		recv := inproc.New(ex, values(t, inproc.Name, nil))
		desc := initFixture(t, recv, transport.Env{Context: 1, Process: "p", Sink: sink})
		send := inproc.New(ex, values(t, inproc.Name, nil))
		initFixture(t, send, transport.Env{Context: 2, Process: "p", Sink: &collector{}})
		return &pair{send: send, desc: desc, sink: sink, poll: []transport.Module{recv}, reliable: true}
	}},
	{"local", func(t *testing.T) *pair {
		sink := &collector{}
		m := local.New()
		desc := initFixture(t, m, transport.Env{Context: 1, Sink: sink})
		return &pair{send: m, desc: desc, sink: sink, reliable: true}
	}},
	{"tcp", func(t *testing.T) *pair {
		sink := &collector{}
		recv := newModule(t, tcp.Name, nil)
		desc := initFixture(t, recv, transport.Env{Context: 1, Sink: sink})
		send := newModule(t, tcp.Name, nil)
		initFixture(t, send, transport.Env{Context: 2, Sink: &collector{}})
		return &pair{send: send, desc: desc, sink: sink, poll: []transport.Module{recv}, reliable: true}
	}},
	{"udp", func(t *testing.T) *pair {
		sink := &collector{}
		recv := newModule(t, udp.Name, nil)
		desc := initFixture(t, recv, transport.Env{Context: 1, Sink: sink})
		send := newModule(t, udp.Name, nil)
		initFixture(t, send, transport.Env{Context: 2, Sink: &collector{}})
		return &pair{send: send, desc: desc, sink: sink, poll: []transport.Module{recv}, reliable: false}
	}},
	{"rudp", func(t *testing.T) *pair {
		sink := &collector{}
		recv := newModule(t, udp.ReliableName, nil)
		desc := initFixture(t, recv, transport.Env{Context: 1, Sink: sink})
		send := newModule(t, udp.ReliableName, nil)
		initFixture(t, send, transport.Env{Context: 2, Sink: &collector{}})
		return &pair{send: send, desc: desc, sink: sink, poll: []transport.Module{recv, send}, reliable: true}
	}},
	{"secure", func(t *testing.T) *pair {
		params := transport.Params{"key": secureTestKey, "inner": "tcp"}
		sink := &collector{}
		recv, err := secure.New(transport.Default, values(t, secure.Name, params))
		if err != nil {
			t.Fatal(err)
		}
		desc := initFixture(t, recv, transport.Env{Context: 1, Sink: sink})
		send, err := secure.New(transport.Default, values(t, secure.Name, params))
		if err != nil {
			t.Fatal(err)
		}
		initFixture(t, send, transport.Env{Context: 2, Sink: &collector{}})
		return &pair{send: send, desc: desc, sink: sink, poll: []transport.Module{recv}, reliable: true}
	}},
	{"shm", func(t *testing.T) *pair {
		if !shm.Supported() {
			t.Skip("shm transport requires linux mmap/FIFO support")
		}
		sink := &collector{}
		recv := shm.New(values(t, shm.Name, transport.Params{"dir": t.TempDir()}))
		desc := initFixture(t, recv, transport.Env{Context: 1, Sink: sink})
		send := shm.New(values(t, shm.Name, transport.Params{"dir": t.TempDir()}))
		initFixture(t, send, transport.Env{Context: 2, Sink: &collector{}})
		// Both modules poll: the receiver drains accepted segments, the
		// sender drains the reverse rings of segments it dialed.
		return &pair{send: send, desc: desc, sink: sink, poll: []transport.Module{recv, send}, reliable: true}
	}},
	{"simnet", func(t *testing.T) *pair {
		fab := simnet.NewFabric("conformance-" + t.Name())
		cfg := simnet.Config{Method: "sim", Scope: simnet.ScopeGlobal, TimeScale: 1, PollBatch: 32, MaxMessage: 32 << 10}
		sink := &collector{}
		recv := simnet.New(fab, cfg)
		desc := initFixture(t, recv, transport.Env{Context: 1, Sink: sink})
		send := simnet.New(fab, cfg)
		initFixture(t, send, transport.Env{Context: 2, Sink: &collector{}})
		return &pair{send: send, desc: desc, sink: sink, poll: []transport.Module{recv}, reliable: true}
	}},
}

// limit reports the pair's frame-size limit (0 = unlimited) via the
// SizeLimiter capability, exactly as the core discovers it.
func (p *pair) limit() int {
	if sl, ok := p.send.(transport.SizeLimiter); ok {
		return sl.MaxMessage()
	}
	return 0
}

// deliver sends frame and waits until the sink holds it, retrying the send on
// unreliable transports.
func (p *pair) deliver(t *testing.T, c transport.Conn, frame []byte) {
	t.Helper()
	if err := c.Send(frame); err != nil {
		t.Fatalf("Send(%d bytes): %v", len(frame), err)
	}
	deadline := time.Now().Add(15 * time.Second)
	resend := time.Now().Add(250 * time.Millisecond)
	for !p.sink.has(frame) {
		if time.Now().After(deadline) {
			t.Fatalf("frame of %d bytes not delivered within deadline", len(frame))
		}
		if !p.reliable && time.Now().After(resend) {
			if err := c.Send(frame); err != nil {
				t.Fatalf("re-Send(%d bytes): %v", len(frame), err)
			}
			resend = time.Now().Add(250 * time.Millisecond)
		}
		time.Sleep(time.Millisecond)
	}
}

// pattern builds a deterministic payload of the given size whose first bytes
// identify it, so distinct test frames never compare equal.
func pattern(tag byte, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i) ^ tag
	}
	if size > 0 {
		b[0] = tag
	}
	return b
}

func TestConformanceRoundTrip(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			p.startPoller(t)
			c, err := p.send.Dial(p.desc)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i, size := range []int{1, 100, 4 << 10, 24 << 10} {
				p.deliver(t, c, pattern(byte(i+1), size))
			}
			if p.reliable {
				// Reliable transports also guarantee order: the frames must
				// have arrived exactly as sent.
				p.sink.mu.Lock()
				defer p.sink.mu.Unlock()
				if len(p.sink.frames) != 4 {
					t.Fatalf("delivered %d frames, want 4", len(p.sink.frames))
				}
				for i, size := range []int{1, 100, 4 << 10, 24 << 10} {
					if !bytes.Equal(p.sink.frames[i], pattern(byte(i+1), size)) {
						t.Errorf("frame %d out of order or corrupted", i)
					}
				}
			}
		})
	}
}

// TestConformanceMaxSize sends the largest frame the method accepts (capped
// at 1 MiB for effectively unlimited methods) and requires intact delivery.
func TestConformanceMaxSize(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			p.startPoller(t)
			c, err := p.send.Dial(p.desc)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			size := 1 << 20
			if l := p.limit(); l > 0 && l < size {
				size = l
			}
			p.deliver(t, c, pattern(0x5A, size))
		})
	}
}

// TestConformanceOversizeRejected checks the shared size-limit contract on
// every size-limited method: one byte over the limit is refused with an error
// matching transport.ErrTooLarge, and the refusal is a caller error, not a
// connection failure — the very next in-range frame still goes through.
func TestConformanceOversizeRejected(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			l := p.limit()
			if l <= 0 {
				t.Skipf("%s advertises no frame-size limit", fx.name)
			}
			p.startPoller(t)
			c, err := p.send.Dial(p.desc)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Send(make([]byte, l+1)); !errors.Is(err, transport.ErrTooLarge) {
				t.Fatalf("Send(limit+1) err = %v, want errors.Is(..., transport.ErrTooLarge)", err)
			}
			p.deliver(t, c, pattern(0x3C, 64))
		})
	}
}

// TestConformanceConcurrentSendClose races senders against Close on the same
// connection. Any error outcome is acceptable; data races and panics (caught
// by -race and the runtime) are not.
func TestConformanceConcurrentSendClose(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			p.startPoller(t)
			c, err := p.send.Dial(p.desc)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(tag byte) {
					defer wg.Done()
					frame := pattern(tag, 512)
					for i := 0; i < 50; i++ {
						if err := c.Send(frame); err != nil {
							return // closed under us: expected
						}
					}
				}(byte(g))
			}
			time.Sleep(time.Millisecond)
			if err := c.Close(); err != nil {
				t.Errorf("Close during sends: %v", err)
			}
			wg.Wait()
		})
	}
}

// TestConformanceRedialAfterClose closes a connection and dials the same
// descriptor again: the replacement must work, which is what startpoint
// failover and connection-cache invalidation rely on.
func TestConformanceRedialAfterClose(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			p.startPoller(t)
			c1, err := p.send.Dial(p.desc)
			if err != nil {
				t.Fatal(err)
			}
			p.deliver(t, c1, pattern(0x11, 128))
			if err := c1.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			p.sink.reset()
			c2, err := p.send.Dial(p.desc)
			if err != nil {
				t.Fatalf("redial after close: %v", err)
			}
			defer c2.Close()
			p.deliver(t, c2, pattern(0x22, 128))
		})
	}
}

// TestConformanceLimitAdvertised cross-checks the two faces of a size limit:
// a descriptor that advertises a max_message attribute must belong to a
// module that enforces exactly that limit via SizeLimiter, since remote
// senders size their fragments from the descriptor alone. (Modules limited
// only by the wire-level frame cap — tcp, secure — advertise nothing.)
func TestConformanceLimitAdvertised(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			p := fx.make(t)
			adv := p.desc.MaxMessage()
			if adv <= 0 {
				t.Skipf("%s advertises no max_message attribute", fx.name)
			}
			if l := p.limit(); l != adv {
				t.Errorf("descriptor advertises %d but SizeLimiter enforces %s",
					adv, fmt.Sprint(l))
			}
		})
	}
}
