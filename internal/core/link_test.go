package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// scriptModule is a send-only test method: it swallows every frame it
// accepts, fails Sends while failing is set, and records every communication
// object it opens so tests can count opens and per-conn closes.
type scriptModule struct {
	name    string
	failing atomic.Bool
	sent    atomic.Int64

	mu    sync.Mutex
	conns []*scriptConn
}

type scriptConn struct {
	m      *scriptModule
	closes atomic.Int64
}

func (m *scriptModule) Name() string { return m.name }
func (m *scriptModule) Init(env transport.Env) (*transport.Descriptor, error) {
	return &transport.Descriptor{Method: m.name, Context: env.Context}, nil
}
func (m *scriptModule) Applicable(remote transport.Descriptor) bool { return remote.Method == m.name }
func (m *scriptModule) Dial(transport.Descriptor) (transport.Conn, error) {
	c := &scriptConn{m: m}
	m.mu.Lock()
	m.conns = append(m.conns, c)
	m.mu.Unlock()
	return c, nil
}
func (m *scriptModule) Poll() (int, error) { return 0, nil }
func (m *scriptModule) Close() error       { return nil }

// counts reports how many conns the module opened and how many Close calls
// they received in total.
func (m *scriptModule) counts() (opened, closed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conns {
		closed += c.closes.Load()
	}
	return int64(len(m.conns)), closed
}

func (c *scriptConn) Send([]byte) error {
	if c.m.failing.Load() {
		return errors.New("script: injected send failure")
	}
	c.m.sent.Add(1)
	return nil
}
func (c *scriptConn) Method() string { return c.m.name }
func (c *scriptConn) Close() error   { c.closes.Add(1); return nil }

// scriptCtx builds a context whose methods are fresh scriptModules with the
// given names, in preference order.
func scriptCtx(t *testing.T, opts Options, names ...string) (*Context, []*scriptModule) {
	t.Helper()
	reg := transport.NewRegistry()
	reg.Register("local", transport.Default.Params("local"), func(v transport.Values) (transport.Module, error) {
		return transport.Default.New("local", v.Params)
	})
	mods := make([]*scriptModule, len(names))
	for i, name := range names {
		m := &scriptModule{name: name}
		mods[i] = m
		reg.Register(name, nil, func(transport.Values) (transport.Module, error) { return m, nil })
		opts.Methods = append(opts.Methods, MethodConfig{Name: name})
	}
	opts.registry = reg
	opts.health = fastHealth()
	c, err := NewContext(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, mods
}

// scriptTable is the descriptor table of an imaginary context reachable by
// the named script methods.
func scriptTable(dest transport.ContextID, names ...string) *transport.Table {
	table := transport.NewTable()
	for _, name := range names {
		table.Add(transport.Descriptor{Method: name, Context: dest})
	}
	return table
}

// frameFor encodes a minimal RSR frame addressed to dest.
func frameFor(dest transport.ContextID) []byte {
	off := wire.HeaderLenExt(0, 0)
	enc := make([]byte, off+1)
	wire.EncodeHeaderExt(enc, wire.TypeRSR, 0, uint64(dest), 1, 4242, wire.Ext{}, "", 1)
	enc[off] = byte(buffer.NativeFormat)
	return enc
}

// TestForwarderReleasesFailedRoute pins the forwarder's connection lifetime:
// however many frames a route relayed, the route's communication object is
// closed exactly once when it fails, and nothing stays behind in the shared
// connection cache.
func TestForwarderReleasesFailedRoute(t *testing.T) {
	const dest = transport.ContextID(7001)
	fwd, mods := scriptCtx(t, Options{errorLog: func(error) {}}, "a")
	a := mods[0]
	fwd.EnableForwarding()
	fwd.RegisterPeerTable(scriptTable(dest, "a"))

	before := fwd.openConns()
	const relays = 5
	for i := 0; i < relays; i++ {
		fwd.dispatch(nil, frameFor(dest))
	}
	if got := fwd.Stats().Get("forward.relayed"); got != relays {
		t.Fatalf("forward.relayed = %d, want %d", got, relays)
	}
	if opened, closed := a.counts(); opened != 1 || closed != 0 {
		t.Fatalf("after %d relays: %d conns opened, %d closes; want one open route", relays, opened, closed)
	}
	if got := fwd.openConns(); got != before+1 {
		t.Fatalf("openConns = %d with a live route, want %d", got, before+1)
	}

	a.failing.Store(true)
	fwd.dispatch(nil, frameFor(dest))
	if got := fwd.Stats().Get("forward.dropped"); got != 1 {
		t.Fatalf("forward.dropped = %d, want 1", got)
	}
	a.mu.Lock()
	conns := append([]*scriptConn(nil), a.conns...)
	a.mu.Unlock()
	for i, c := range conns {
		if n := c.closes.Load(); n != 1 {
			t.Errorf("conn %d of the failed route: Close ran %d times, want exactly once", i, n)
		}
	}
	if got := fwd.openConns(); got != before {
		t.Errorf("openConns = %d after the route failed, want %d", got, before)
	}
}

// TestLinkSupervisionParity drives one scripted failure sequence through the
// three users of a communication link — a startpoint RSR, a forwarder relay
// and a standalone credit grant — and requires identical supervision from
// each: the first method fails failureThreshold times and its circuit opens,
// the next applicable method carries the frame, the circuit heals, and
// traffic returns to the first method, with the same failover and health
// counter movements and the same connection opens and closes at every step.
func TestLinkSupervisionParity(t *testing.T) {
	const dest = transport.ContextID(7002)
	type caller struct {
		name string
		opts Options
		// setup prepares the context and returns the function that sends one
		// frame to dest.
		setup func(c *Context) (send func() error)
	}
	callers := []caller{
		{name: "startpoint", setup: func(c *Context) func() error {
			sp := c.NewStartpointTo(dest, 1, scriptTable(dest, "a", "b"))
			sp.SetFailover(true)
			return func() error { return sp.RSR("h", nil) }
		}},
		{name: "forwarder", opts: Options{errorLog: func(error) {}}, setup: func(c *Context) func() error {
			c.EnableForwarding()
			c.RegisterPeerTable(scriptTable(dest, "a", "b"))
			return func() error {
				dropped := c.Stats().Get("forward.dropped")
				c.dispatch(nil, frameFor(dest))
				if c.Stats().Get("forward.dropped") != dropped {
					return errors.New("relay dropped")
				}
				return nil
			}
		}},
		{name: "credit grant", opts: Options{Flow: FlowConfig{Enabled: true}}, setup: func(c *Context) func() error {
			c.RegisterPeerTable(scriptTable(dest, "a", "b"))
			return func() error {
				unroutable := c.Stats().Get("flow.grants.unroutable")
				c.sendCreditGrant(uint64(dest), "a")
				if c.Stats().Get("flow.grants.unroutable") != unroutable {
					return errors.New("grant undeliverable")
				}
				return nil
			}
		}},
	}

	// observation is everything the link's supervision is allowed to move.
	type observation struct {
		trips, redials, resends, healthOpen uint64
		aOpened, aClosed, bOpened, bClosed  int64
		aSent, bSent                        int64
	}
	want := []struct {
		step string
		obs  observation
	}{
		{"healthy", observation{aOpened: 1, aSent: 1}},
		{"first method fails", observation{trips: 1, redials: 2, resends: 1, healthOpen: 1,
			aOpened: 2, aClosed: 2, bOpened: 1, aSent: 1, bSent: 1}},
		{"degraded", observation{trips: 1, redials: 2, resends: 1, healthOpen: 1,
			aOpened: 2, aClosed: 2, bOpened: 1, aSent: 1, bSent: 2}},
		{"healed", observation{trips: 1, redials: 2, resends: 1, healthOpen: 1,
			aOpened: 3, aClosed: 2, bOpened: 1, bClosed: 1, aSent: 2, bSent: 2}},
	}

	for _, cl := range callers {
		t.Run(cl.name, func(t *testing.T) {
			c, mods := scriptCtx(t, cl.opts, "a", "b")
			a, b := mods[0], mods[1]
			send := cl.setup(c)
			observe := func() observation {
				st := c.Stats()
				o := observation{
					trips:      st.Get("failover.trips"),
					redials:    st.Get("failover.redials"),
					resends:    st.Get("failover.resends"),
					healthOpen: st.Get("health.open"),
					aSent:      a.sent.Load(),
					bSent:      b.sent.Load(),
				}
				o.aOpened, o.aClosed = a.counts()
				o.bOpened, o.bClosed = b.counts()
				return o
			}
			step := func(i int) {
				t.Helper()
				if err := send(); err != nil {
					t.Fatalf("%s: %v", want[i].step, err)
				}
				if got := observe(); got != want[i].obs {
					t.Fatalf("%s:\n got %+v\nwant %+v", want[i].step, got, want[i].obs)
				}
			}
			step(0)
			a.failing.Store(true)
			step(1)
			if st, ok := circuitState(c, "a", dest); !ok || st != CircuitOpen {
				t.Fatalf("circuit a after %d failures = %v, want open", fastHealth().failureThreshold, st)
			}
			step(2)
			a.failing.Store(false)
			time.Sleep(2 * fastHealth().backoffBase) // the open circuit's backoff expires: a probe is due
			step(3)
			if st, _ := circuitState(c, "a", dest); st != CircuitClosed {
				t.Fatalf("circuit a after the probe succeeded = %v, want closed", st)
			}
		})
	}
}

// TestRelayHop pins how a descriptor's relay attribute reads: a relayed
// descriptor names its hop, a direct one reads 0 without allocating (every
// bind asks), and a malformed value reads 0.
func TestRelayHop(t *testing.T) {
	relayed := transport.NewTable(transport.Descriptor{Method: "tcp", Context: 1, Attrs: map[string]string{transport.AttrRelay: "77"}})
	direct := transport.NewTable(transport.Descriptor{Method: "tcp", Context: 1, Attrs: map[string]string{"addr": "127.0.0.1:1"}})
	bad := transport.NewTable(transport.Descriptor{Method: "tcp", Context: 1, Attrs: map[string]string{transport.AttrRelay: "x7"}})
	if got := relayHop(relayed.Entries[0]); got != 77 {
		t.Errorf("relayed descriptor hop = %d, want 77", got)
	}
	if got := relayHop(bad.Entries[0]); got != 0 {
		t.Errorf("malformed relay attribute reads %d, want 0", got)
	}
	d := direct.Entries[0]
	if avg := testing.AllocsPerRun(100, func() {
		if relayHop(d) != 0 {
			t.Fatal("direct descriptor has a relay hop")
		}
	}); avg != 0 {
		t.Errorf("relayHop of a direct descriptor allocates %.1f times, want 0", avg)
	}
}
