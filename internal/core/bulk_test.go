package core

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/simnet"
	"nexus/internal/transport"
	_ "nexus/internal/transport/udp"
)

// bulkPayload builds a deterministic pseudo-random payload whose corruption
// or truncation any bytes.Equal check will catch.
func bulkPayload(size int) []byte {
	p := make([]byte, size)
	x := uint32(2463534242)
	for i := range p {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p[i] = byte(x)
	}
	return p
}

// bulkSink is a handler target that verifies every delivery against the
// expected payload: partial or corrupted deliveries are counted separately
// and fail the test, enforcing the all-or-nothing contract.
type bulkSink struct {
	want []byte
	good atomic.Int64
	bad  atomic.Int64
}

func (s *bulkSink) handler(ep *Endpoint, b *buffer.Buffer) {
	if got := b.BytesValue(); bytes.Equal(got, s.want) {
		s.good.Add(1)
	} else {
		s.bad.Add(1)
	}
}

// startPolling drives c.Poll from a background goroutine for the duration of
// the test, standing in for the receiving node's compute thread. Blocking-
// window transports (rudp) need the remote side polling — it produces the
// ACKs — while the sender sits inside RSR.
func startPolling(t testing.TB, c *Context) {
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
			if c.Poll() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	t.Cleanup(func() { close(done); <-exited })
}

// TestBulkRoundTripFragmented sends a 1 MiB RSR across real sockets. Over
// udp and rudp the frame exceeds the datagram limit, so the startpoint must
// fragment and the receiver reassemble; over tcp the same payload rides in
// one frame and the fragmentation path must stay cold.
func TestBulkRoundTripFragmented(t *testing.T) {
	payload := bulkPayload(1 << 20)
	cases := []struct {
		method     string
		fragmented bool
		unreliable bool
	}{
		{"tcp", false, false},
		{"udp", true, true},
		{"rudp", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			recv := newCtx(t, "bulk-"+tc.method, "", MethodConfig{Name: tc.method})
			send := newCtx(t, "bulk-"+tc.method, "", MethodConfig{Name: tc.method})
			sink := &bulkSink{want: payload}
			ep := recv.NewEndpoint(WithHandler(sink.handler))
			sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
			startPolling(t, recv)

			sendOnce := func() {
				b := buffer.New(len(payload) + 8)
				b.PutBytes(payload)
				if err := sp.RSR("", b); err != nil {
					t.Fatalf("bulk RSR over %s: %v", tc.method, err)
				}
			}
			sendOnce()
			if tc.unreliable {
				// udp may drop fragments even on loopback; resend the whole
				// message (fresh fragment ids each time) until one lands.
				deadline := time.Now().Add(15 * time.Second)
				for sink.good.Load() == 0 {
					if time.Now().After(deadline) {
						t.Fatal("no complete delivery within deadline")
					}
					time.Sleep(200 * time.Millisecond)
					if sink.good.Load() == 0 {
						sendOnce()
					}
				}
			} else if !recv.PollUntil(func() bool { return sink.good.Load() >= 1 }, 15*time.Second) {
				t.Fatal("bulk RSR never delivered")
			}
			if n := sink.bad.Load(); n != 0 {
				t.Fatalf("%d corrupted/partial deliveries reached the handler", n)
			}
			if m := sp.Method(); m != tc.method {
				t.Errorf("selected %q, want %q", m, tc.method)
			}

			fragged := send.Stats().Get("frag.messages.sent")
			assembled := recv.Stats().Get("frag.assembled")
			if tc.fragmented {
				if fragged == 0 || assembled == 0 {
					t.Errorf("expected fragmentation: messages.sent=%d assembled=%d", fragged, assembled)
				}
				if tx := send.Stats().Get("frag.fragments.sent"); tx < 17 {
					t.Errorf("1 MiB over %s sent only %d fragments", tc.method, tx)
				}
			} else if fragged != 0 || assembled != 0 {
				t.Errorf("%s fragmented a frame it can carry whole: messages.sent=%d assembled=%d",
					tc.method, fragged, assembled)
			}
		})
	}
}

// TestBulkThreadedDelivery reassembles on a threaded context: the rebuilt
// logical frame must be dispatched through the lane engine, not inline.
func TestBulkThreadedDelivery(t *testing.T) {
	payload := bulkPayload(512 << 10)
	tag := "bulk-threaded"
	recvC, err := NewContext(Options{
		Threaded: true,
		Methods:  []MethodConfig{{Name: "rudp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recvC.Close() })
	send := newCtx(t, tag, "", MethodConfig{Name: "rudp"})

	sink := &bulkSink{want: payload}
	var lane atomic.Bool
	ep := recvC.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		lane.Store(true)
		sink.handler(ep, b)
	}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	startPolling(t, recvC)

	b := buffer.New(len(payload) + 8)
	b.PutBytes(payload)
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if !recvC.PollUntil(func() bool { return sink.good.Load() == 1 }, 15*time.Second) {
		t.Fatalf("threaded bulk delivery missing (good=%d bad=%d)", sink.good.Load(), sink.bad.Load())
	}
	if recvC.Stats().Get("frag.assembled") != 1 {
		t.Errorf("frag.assembled = %d, want 1", recvC.Stats().Get("frag.assembled"))
	}
}

// TestSmallSendsSkipFragPath pins the steady-state property the zero-copy
// benchmarks rely on: ordinary small RSRs never touch the fragmentation
// counters or leave partial state behind.
func TestSmallSendsSkipFragPath(t *testing.T) {
	tag := "bulk-small"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())
	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	for i := 0; i < 32; i++ {
		b := buffer.New(64)
		b.PutInt(i)
		if err := sp.RSR("", b); err != nil {
			t.Fatal(err)
		}
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 32 }, 5*time.Second) {
		t.Fatalf("delivered %d/32", hits.Load())
	}
	for _, name := range []string{"frag.messages.sent", "frag.fragments.sent"} {
		if v := send.Stats().Get(name); v != 0 {
			t.Errorf("sender %s = %d after small sends", name, v)
		}
	}
	for _, name := range []string{"frag.fragments.recv", "frag.assembled", "frag.expired"} {
		if v := recv.Stats().Get(name); v != 0 {
			t.Errorf("receiver %s = %d after small sends", name, v)
		}
	}
	if recv.frags.Partials() != 0 {
		t.Errorf("receiver holds %d partials after small sends", recv.frags.Partials())
	}
}

// TestContextMessageCap checks the context-level payload ceiling: an RSR
// larger than the context's message cap is refused at the startpoint with the
// unified oversize error before any bytes move.
func TestContextMessageCap(t *testing.T) {
	c, err := NewContext(Options{maxMessage: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var hits atomic.Int64
	ep := c.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { hits.Add(1) }))
	sp := ep.NewStartpoint()
	b := buffer.New(8 << 10)
	b.PutBytes(bulkPayload(8 << 10))
	if err := sp.RSR("", b); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("oversize RSR err = %v, want errors.Is(..., transport.ErrTooLarge)", err)
	}
	if hits.Load() != 0 {
		t.Error("oversize RSR reached the handler")
	}
	small := buffer.New(64)
	small.PutInt(1)
	if err := sp.RSR("", small); err != nil {
		t.Fatalf("in-range RSR after rejection: %v", err)
	}
	if hits.Load() != 1 {
		t.Error("startpoint unusable after oversize rejection")
	}
}

// TestSizeAwareSelector routes by payload size: under the threshold the
// low-latency policy picks inproc; above it the bulk policy picks the
// simulated high-bandwidth fabric. A manual SetMethod pin bypasses the
// policy entirely.
func TestSizeAwareSelector(t *testing.T) {
	tag := "bulk-sizeaware"
	fast := func() MethodConfig {
		return MethodConfig{Name: "mpl", Params: transport.Params{
			"latency": "0", "poll_cost": "0", "bandwidth": "0"}}
	}
	recv := newCtx(t, tag, "part", inprocCfg(), fast())

	mkSender := func(threshold int) *Context {
		t.Helper()
		c, err := NewContext(Options{
			Partition: "part",
			Methods: []MethodConfig{
				{Name: "inproc", Params: transport.Params{"exchange": tag}},
				{Name: "mpl", Params: transport.Params{
					"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0"}},
			},
			Selector: SizeAware(threshold, PreferOrder("inproc"), PreferOrder("mpl")),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	send := mkSender(1 << 10)

	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { hits.Add(1) }))

	// Selection is per-startpoint and sticky, so each probe gets its own
	// transferred startpoint and triggers selection with its own size.
	small := transferStartpoint(t, ep.NewStartpoint(), send, false)
	b := buffer.New(128)
	b.PutBytes(bulkPayload(100))
	if err := small.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if m := small.Method(); m != "inproc" {
		t.Errorf("small RSR selected %q, want inproc", m)
	}

	bulk := transferStartpoint(t, ep.NewStartpoint(), send, false)
	b = buffer.New(8 << 10)
	b.PutBytes(bulkPayload(8 << 10))
	if err := bulk.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if m := bulk.Method(); m != "mpl" {
		t.Errorf("bulk RSR selected %q, want mpl", m)
	}

	// A manual pin wins over the size policy regardless of payload size.
	pinned := transferStartpoint(t, ep.NewStartpoint(), send, false)
	if err := pinned.SetMethod("inproc"); err != nil {
		t.Fatal(err)
	}
	b = buffer.New(8 << 10)
	b.PutBytes(bulkPayload(8 << 10))
	if err := pinned.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if m := pinned.Method(); m != "inproc" {
		t.Errorf("pinned bulk RSR used %q, want inproc", m)
	}

	if !recv.PollUntil(func() bool { return hits.Load() == 3 }, 5*time.Second) {
		t.Fatalf("delivered %d/3", hits.Load())
	}
}

// TestSizeAwarePrefersNativeCapacity gives the bulk policy a method that
// cannot carry the message in one frame: the restricted table must exclude
// it, so the message rides the unlimited method whole instead of
// fragmenting over the preferred-but-small one.
func TestSizeAwarePrefersNativeCapacity(t *testing.T) {
	tag := "bulk-native"
	tiny := func() MethodConfig {
		return MethodConfig{Name: "mpl", Params: transport.Params{
			"latency": "0", "poll_cost": "0", "bandwidth": "0", "max_message": "4096"}}
	}
	recv := newCtx(t, tag, "part", inprocCfg(), tiny())
	send, err := NewContext(Options{
		Partition: "part",
		Methods: []MethodConfig{
			{Name: "inproc", Params: transport.Params{"exchange": tag}},
			{Name: "mpl", Params: transport.Params{
				"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0", "max_message": "4096"}},
		},
		// The bulk policy asks for mpl, but a 64 KiB message does not fit
		// its 4 KiB frames natively.
		Selector: SizeAware(1<<10, nil, PreferOrder("mpl")),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })

	var hits atomic.Int64
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) { hits.Add(1) }))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	b := buffer.New(64 << 10)
	b.PutBytes(bulkPayload(64 << 10))
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "inproc" {
		t.Errorf("bulk RSR selected %q, want inproc (native capacity)", m)
	}
	if !recv.PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("not delivered")
	}
	if send.Stats().Get("frag.messages.sent") != 0 {
		t.Error("message was fragmented despite a native-capacity method")
	}
}

// chaosPair builds sender and receiver contexts joined only by a simulated
// WAN with a small MTU, so every bulk message must fragment, and returns the
// fabric's fault controller.
func chaosPair(t *testing.T, tag string, ttl time.Duration) (send, recv *Context, faults *simnet.Faults) {
	t.Helper()
	params := func() transport.Params {
		return transport.Params{
			"fabric": tag, "latency": "0", "poll_cost": "0", "bandwidth": "0",
			"max_message": "32768"}
	}
	mk := func() *Context {
		c, err := NewContext(Options{
			Methods: []MethodConfig{{Name: "wan", Params: params()}},
			fragTTL: ttl,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	recv, send = mk(), mk()
	// The registered simnet methods scope fabrics by "<fabric>/<method>".
	return send, recv, simnet.GetOrCreateFabric(tag + "/wan").Faults()
}

// TestChaosFragmentedBulk drives 1 MiB fragmented sends through simnet fault
// injection — silent loss, transient send failures, partition and heal — and
// checks the bulk path's core guarantee: the handler observes complete,
// intact messages or nothing, and abandoned partials are expired, never
// leaked.
func TestChaosFragmentedBulk(t *testing.T) {
	const ttl = 250 * time.Millisecond
	payload := bulkPayload(1 << 20)
	send, recv, faults := chaosPair(t, "bulk-chaos", ttl)
	t.Cleanup(faults.Reset)
	sink := &bulkSink{want: payload}
	ep := recv.NewEndpoint(WithHandler(sink.handler))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	sp.SetFailover(true)

	rsr := func() error {
		b := buffer.New(len(payload) + 8)
		b.PutBytes(payload)
		return sp.RSR("", b)
	}

	// Fault-free baseline: 32 fragments, one assembly.
	if err := rsr(); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool { return sink.good.Load() == 1 }, 10*time.Second) {
		t.Fatal("baseline bulk send not delivered")
	}
	// ~32 KiB chunks carry 1 MiB in 33 fragments (headers shave a little
	// off each chunk).
	if n := send.Stats().Get("frag.fragments.sent"); n < 32 || n > 34 {
		t.Fatalf("baseline sent %d fragments, want ~33", n)
	}

	// Silent loss: with half the fragments vanishing, a 32-fragment message
	// effectively never completes. The handler must see nothing at all from
	// these sends, and the receiver must eventually expire the partials.
	faults.Seed(7)
	faults.DropRate(send.ID(), recv.ID(), 0.5)
	for i := 0; i < 3; i++ {
		if err := rsr(); err != nil {
			t.Fatalf("lossy send %d: %v", i, err)
		}
	}
	recv.PollUntil(func() bool { return false }, 50*time.Millisecond) // drain surviving fragments
	faults.DropRate(send.ID(), recv.ID(), 0)
	if got := sink.good.Load(); got != 1 {
		t.Fatalf("lossy sends completed %d messages, want 0 (good=%d)", got-1, got)
	}
	time.Sleep(ttl + 50*time.Millisecond)
	if !recv.PollUntil(func() bool { return recv.Stats().Get("frag.expired") >= 1 }, 5*time.Second) {
		t.Fatalf("abandoned partials never expired (expired=%d, partials=%d)",
			recv.Stats().Get("frag.expired"), recv.frags.Partials())
	}
	if n := recv.frags.Partials(); n != 0 {
		t.Errorf("%d partials leaked past the TTL", n)
	}

	// Transient send failure mid-stream: the failover layer resends the
	// whole message under a fresh fragment id; the receiver assembles the
	// resend and expires whatever the aborted attempt left behind.
	faults.FailNextSends(send.ID(), recv.ID(), 1)
	if err := rsr(); err != nil {
		t.Fatalf("send across transient fault: %v", err)
	}
	if !recv.PollUntil(func() bool { return sink.good.Load() == 2 }, 10*time.Second) {
		t.Fatalf("message lost to a transient fault (good=%d)", sink.good.Load())
	}

	// Partition: the only method is cut, so the send must fail cleanly —
	// no partial delivery — and succeed again after healing.
	faults.Partition(
		[]transport.ContextID{send.ID()},
		[]transport.ContextID{recv.ID()},
	)
	if err := rsr(); err == nil {
		t.Fatal("send across a partition succeeded")
	}
	faults.Heal()
	if err := rsr(); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if !recv.PollUntil(func() bool { return sink.good.Load() == 3 }, 10*time.Second) {
		t.Fatalf("post-heal send not delivered (good=%d)", sink.good.Load())
	}

	if n := sink.bad.Load(); n != 0 {
		t.Fatalf("handler observed %d partial/corrupt deliveries", n)
	}
}

// TestFailoverRefragments cuts the preferred method mid-conversation: the
// retry must re-fragment the same logical message over the fallback method
// under a fresh id, and exactly one copy reaches the handler.
func TestFailoverRefragments(t *testing.T) {
	tag := "bulk-failover"
	payload := bulkPayload(256 << 10)
	params := func(fab string) transport.Params {
		return transport.Params{
			"fabric": fab, "latency": "0", "poll_cost": "0", "bandwidth": "0",
			"max_message": "32768"}
	}
	mk := func() *Context {
		c, err := NewContext(Options{
			Methods: []MethodConfig{
				{Name: "wan", Params: params(tag)},
				{Name: "atm", Params: params(tag)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	recv, send := mk(), mk()
	sink := &bulkSink{want: payload}
	ep := recv.NewEndpoint(WithHandler(sink.handler))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	sp.SetFailover(true)

	// Kill the wan link permanently; the startpoint should fail over to atm
	// and deliver the whole message there.
	wanFaults := simnet.GetOrCreateFabric(tag + "/wan").Faults()
	t.Cleanup(wanFaults.Reset)
	wanFaults.CutLink(send.ID(), recv.ID())
	b := buffer.New(len(payload) + 8)
	b.PutBytes(payload)
	if err := sp.RSR("", b); err != nil {
		t.Fatalf("RSR with dead preferred method: %v", err)
	}
	if !recv.PollUntil(func() bool { return sink.good.Load() == 1 }, 10*time.Second) {
		t.Fatalf("failover send not delivered (good=%d bad=%d)", sink.good.Load(), sink.bad.Load())
	}
	if m := sp.Method(); m != "atm" {
		t.Errorf("failover landed on %q, want atm", m)
	}
	if sink.bad.Load() != 0 {
		t.Error("handler saw a partial delivery during failover")
	}
}

// fragCountersRegistered pins the counter names the observability docs
// promise; a rename is an API break for dashboards.
func TestFragCounterNamesRegistered(t *testing.T) {
	c := newCtx(t, "bulk-counters", "")
	snap := c.Stats().Snapshot()
	for _, name := range []string{
		"frag.messages.sent", "frag.fragments.sent", "frag.fragments.recv",
		"frag.assembled", "frag.expired", "frag.duplicates", "frag.dropped",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("counter %q not registered", name)
		}
	}
}
