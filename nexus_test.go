package nexus_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus"
	"nexus/internal/transport"
)

// TestPublicAPIRoundTrip drives the facade end to end: contexts, links,
// startpoint transfer, RSRs, enquiry.
func TestPublicAPIRoundTrip(t *testing.T) {
	server, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: "inproc"}, {Name: "tcp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: "inproc"}, {Name: "tcp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var got atomic.Value
	server.RegisterHandler("echo", func(ep *nexus.Endpoint, b *nexus.Buffer) {
		got.Store(b.String())
	})
	ep := server.NewEndpoint()
	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), client)
	if err != nil {
		t.Fatal(err)
	}
	b := nexus.NewBuffer(32)
	b.PutString("through the facade")
	if err := sp.RSR("echo", b); err != nil {
		t.Fatal(err)
	}
	if !server.PollUntil(func() bool { return got.Load() != nil }, 5*time.Second) {
		t.Fatal("RSR not delivered")
	}
	if got.Load() != "through the facade" {
		t.Errorf("got %v", got.Load())
	}
	if m := sp.Method(); m != "inproc" {
		t.Errorf("selected %q, want inproc (table order)", m)
	}
}

// TestSecureMethodPerLink reproduces the paper's §2 security scenario
// through the public API: the same context reaches one peer in plaintext
// (inside the "site") and another with encryption (outside), by per-link
// manual method selection.
func TestSecureMethodPerLink(t *testing.T) {
	const key = "00112233445566778899aabbccddeeff"
	methods := []nexus.MethodConfig{
		{Name: "inproc"},
		{Name: "secure", Params: nexus.Params{"key": key, "inner": "tcp"}},
	}
	mk := func() *nexus.Context {
		c, err := nexus.NewContext(nexus.Options{Methods: methods})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	inside, outside, sender := mk(), mk(), mk()

	var insideGot, outsideGot atomic.Int64
	epIn := inside.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { insideGot.Add(1) }))
	epOut := outside.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { outsideGot.Add(1) }))

	spIn, err := nexus.TransferStartpoint(epIn.NewStartpoint(), sender)
	if err != nil {
		t.Fatal(err)
	}
	spOut, err := nexus.TransferStartpoint(epOut.NewStartpoint(), sender)
	if err != nil {
		t.Fatal(err)
	}
	// Intra-site: automatic selection picks the fast plaintext method.
	if _, err := spIn.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := spIn.Method(); m != "inproc" {
		t.Errorf("intra-site method = %q", m)
	}
	// Extra-site: policy demands encryption on this link only.
	if err := spOut.SetMethod("secure"); err != nil {
		t.Fatal(err)
	}
	if err := spIn.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if err := spOut.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if !inside.PollUntil(func() bool { return insideGot.Load() == 1 }, 5*time.Second) {
		t.Error("plaintext RSR lost")
	}
	if !outside.PollUntil(func() bool { return outsideGot.Load() == 1 }, 5*time.Second) {
		t.Error("encrypted RSR lost")
	}
}

// TestResourceSpecDrivenContext builds a context from a textual method spec,
// the command-line/resource-database path of §3.1.
func TestResourceSpecDrivenContext(t *testing.T) {
	methods, err := nexus.ParseMethodSpec("inproc,tcp:skip_poll=25,udp")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := nexus.NewContext(nexus.Options{Methods: methods})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if got := ctx.SkipPoll("tcp"); got != 25 {
		t.Errorf("tcp skip_poll = %d", got)
	}
	names := map[string]bool{}
	for _, mi := range ctx.Methods() {
		names[mi.Name] = true
	}
	for _, want := range []string{"local", "inproc", "tcp", "udp"} {
		if !names[want] {
			t.Errorf("method %q missing from context", want)
		}
	}
}

// TestCustomModuleRegistration plugs a user-defined communication method in
// through the public registry — the paper's dynamically loaded module.
func TestCustomModuleRegistration(t *testing.T) {
	name := fmt.Sprintf("custom-%d", time.Now().UnixNano())
	params := []nexus.ModuleParam{{Key: "loopback_tag", Default: "none", Doc: "a label"}}
	var tag string
	nexus.RegisterModule(name, params, func(v nexus.ModuleValues) (nexus.Module, error) {
		tag = v.Str("loopback_tag")
		return &loopbackModule{name: name}, nil
	})
	t.Cleanup(func() { transport.Default.Unregister(name) })
	_, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: name, Params: nexus.Params{"loopback_tga": "x"}}},
	})
	if !errors.Is(err, nexus.ErrBadParam) {
		t.Fatalf("misspelled key: NewContext = %v, want ErrBadParam", err)
	}
	ctx, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: name, Params: nexus.Params{"loopback_tag": "x"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if tag != "x" {
		t.Errorf("factory read loopback_tag %q, want x", tag)
	}

	var got atomic.Int64
	ep := ctx.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { got.Add(1) }))
	sp := ep.NewStartpoint()
	// Force the custom method (local would win automatic selection).
	if err := sp.SetMethod(name); err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if !ctx.PollUntil(func() bool { return got.Load() == 1 }, 5*time.Second) {
		t.Fatal("custom module did not deliver")
	}
}

// loopbackModule is a trivial custom method: frames sent to the owning
// context are queued and delivered on Poll. It implements the exported
// nexus.Module interface directly, as a third-party transport would.
type loopbackModule struct {
	name string
	sink nexus.FrameSink
	mu   sync.Mutex
	q    [][]byte
	self nexus.ContextID
}

func (m *loopbackModule) Name() string { return m.name }

func (m *loopbackModule) Init(env nexus.ModuleEnv) (*nexus.Descriptor, error) {
	m.sink = env.Sink
	m.self = env.Context
	return &nexus.Descriptor{Method: m.name, Context: env.Context}, nil
}

func (m *loopbackModule) Applicable(remote nexus.Descriptor) bool {
	return remote.Method == m.name && remote.Context == m.self
}

func (m *loopbackModule) Dial(remote nexus.Descriptor) (nexus.ModuleConn, error) {
	return loopConn{m: m}, nil
}

func (m *loopbackModule) Poll() (int, error) {
	m.mu.Lock()
	q := m.q
	m.q = nil
	m.mu.Unlock()
	for _, f := range q {
		m.sink.Deliver(f)
	}
	return len(q), nil
}

func (m *loopbackModule) Close() error { return nil }

type loopConn struct{ m *loopbackModule }

func (c loopConn) Send(frame []byte) error {
	c.m.mu.Lock()
	// Send borrows the frame; queueing past return requires a copy.
	c.m.q = append(c.m.q, append([]byte(nil), frame...))
	c.m.mu.Unlock()
	return nil
}
func (c loopConn) Method() string { return c.m.name }
func (c loopConn) Close() error   { return nil }

// TestErrorsExported checks that the facade's error values support errors.Is
// against core failures.
func TestErrorsExported(t *testing.T) {
	ctx, err := nexus.NewContext(nexus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetSkipPoll("nonexistent", 5); !errors.Is(err, nexus.ErrUnknownMethod) {
		t.Errorf("SetSkipPoll error = %v", err)
	}
	ctx.Close()
	ep := ctx.NewEndpoint()
	if _, err := ep.NewStartpoint().SelectMethod(); !errors.Is(err, nexus.ErrClosed) {
		t.Errorf("SelectMethod on closed context = %v", err)
	}
}
