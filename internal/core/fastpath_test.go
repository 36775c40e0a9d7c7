package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// TestCrossMergeNoDeadlock is the regression test for the Merge lock-order
// inversion: two goroutines merging a pair of startpoints into each other
// used to acquire the two startpoint locks in opposite orders and deadlock.
// Run under -race, which also checks Merge's copy-on-write link set for
// unsynchronized table access.
func TestCrossMergeNoDeadlock(t *testing.T) {
	tag := "cross-merge"
	r1 := newCtx(t, tag, "", inprocCfg())
	r2 := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())

	epA := r1.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	epB := r2.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	spA := transferStartpoint(t, epA.NewStartpoint(), send, false)
	spB := transferStartpoint(t, epB.NewStartpoint(), send, false)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); spA.Merge(spB) }()
		go func() { defer wg.Done(); spB.Merge(spA) }()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cross-merge deadlocked")
	}
	if n := len(spA.Targets()); n != 2 {
		t.Errorf("spA targets = %d, want 2", n)
	}
	if n := len(spB.Targets()); n != 2 {
		t.Errorf("spB targets = %d, want 2", n)
	}
}

// TestMergeWhileSending runs RSRs from several goroutines on one startpoint
// while Merge adds targets to it: a send uses the link set it loaded, no send
// fails, and every merged target receives frames. Run under -race, it checks
// that Merge's copy-on-write replacement of the link set needs no lock on the
// send path.
func TestMergeWhileSending(t *testing.T) {
	tag := "merge-while-sending"
	send := newCtx(t, tag, "", inprocCfg())
	const targets, senders = 4, 4
	recv := make([]*Context, targets)
	got := make([]atomic.Int64, targets)
	sps := make([]*Startpoint, targets)
	for i := range recv {
		recv[i] = newCtx(t, tag, "", inprocCfg())
		ep := recv[i].NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { got[i].Add(1) }))
		sps[i] = transferStartpoint(t, ep.NewStartpoint(), send, false)
	}
	sp := sps[0]
	poll := func() {
		for _, c := range recv {
			c.Poll()
		}
	}

	var stop atomic.Bool
	errs := make(chan error, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := buffer.New(16)
			b.PutInt64(int64(g))
			for !stop.Load() {
				if err := sp.RSR("", b); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()
	for i := 1; i < targets; i++ {
		sp.Merge(sps[i])
		for deadline := time.Now().Add(10 * time.Second); got[i].Load() == 0; poll() {
			if time.Now().After(deadline) {
				t.Fatalf("merged target %d received nothing", i)
			}
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("RSR during Merge: %v", err)
	}
	poll()
	if n := len(sp.Targets()); n != targets {
		t.Errorf("startpoint has %d targets, want %d", n, targets)
	}
	for i := range got {
		if got[i].Load() == 0 {
			t.Errorf("target %d received nothing", i)
		}
	}
}

// TestLocalRSRAllocs pins the steady-state allocation count of a local
// (same-context) RSR dispatch. The budget is two allocations: the *Buffer
// wrapper handed to the handler, and nothing else — frame scratch comes from
// the pool, the Frame decodes onto the stack, and the hot counters are
// cached on the Context.
func TestLocalRSRAllocs(t *testing.T) {
	c := newCtx(t, "local-allocs", "")
	ep := c.NewEndpoint(WithHandler(func(_ *Endpoint, b *buffer.Buffer) {
		_ = b.Int64()
	}))
	sp := ep.NewStartpoint()
	b := buffer.New(16)
	b.PutInt64(7)
	if err := sp.RSR("", b); err != nil { // warm up: selection + pool
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := sp.RSR("", b); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Errorf("local RSR allocates %.1f per op, budget is 2", n)
	}
}

// recordModule captures outbound frames at Send time without delivering
// them, recording where each frame's storage lives so tests can prove the
// multicast path encodes once and re-addresses in place.
type recordModule struct {
	mu    sync.Mutex
	sends []recordedSend
}

type recordedSend struct {
	ptr   *byte  // &frame[0] at Send time — identifies the backing array
	frame []byte // copy, decoded later
}

func (m *recordModule) Name() string { return "rec" }
func (m *recordModule) Init(env transport.Env) (*transport.Descriptor, error) {
	return &transport.Descriptor{Method: "rec", Context: env.Context,
		Attrs: map[string]string{"addr": "x"}}, nil
}
func (m *recordModule) Applicable(remote transport.Descriptor) bool {
	return remote.Method == "rec"
}
func (m *recordModule) Dial(remote transport.Descriptor) (transport.Conn, error) {
	return &recordConn{m: m}, nil
}
func (m *recordModule) Poll() (int, error) { return 0, nil }
func (m *recordModule) Close() error       { return nil }

type recordConn struct{ m *recordModule }

func (c *recordConn) Send(frame []byte) error {
	c.m.mu.Lock()
	c.m.sends = append(c.m.sends, recordedSend{
		ptr:   &frame[0],
		frame: append([]byte(nil), frame...),
	})
	c.m.mu.Unlock()
	return nil
}
func (c *recordConn) Method() string { return "rec" }
func (c *recordConn) Close() error   { return nil }

// TestMulticastEncodesOnce proves the fan-out property: an RSR on a
// startpoint merged across 8 targets performs 8 Sends of the *same* backing
// array — the frame is encoded once and only its destination words are
// rewritten per target — and every target sees its own (context, endpoint)
// address with identical payload bytes.
func TestMulticastEncodesOnce(t *testing.T) {
	rec := &recordModule{}
	reg := transport.NewRegistry()
	reg.Register("rec", nil, func(transport.Values) (transport.Module, error) { return rec, nil })
	reg.Register("local", transport.Default.Params("local"), func(v transport.Values) (transport.Module, error) {
		return transport.Default.New("local", v.Params)
	})

	mk := func() *Context {
		c, err := NewContext(Options{registry: reg, Methods: []MethodConfig{{Name: "rec"}}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	send := mk()

	const fanout = 8
	var want []struct{ ctx, ep uint64 }
	var sp *Startpoint
	for i := 0; i < fanout; i++ {
		recv := mk()
		ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
		s := transferStartpoint(t, ep.NewStartpoint(), send, false)
		want = append(want, struct{ ctx, ep uint64 }{uint64(recv.ID()), ep.ID()})
		if sp == nil {
			sp = s
		} else {
			sp.Merge(s)
		}
	}

	payload := buffer.New(64)
	payload.PutString("multicast-payload")
	if err := sp.RSR("", payload); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	sends := rec.sends
	rec.mu.Unlock()
	if len(sends) != fanout {
		t.Fatalf("recorded %d sends, want %d", len(sends), fanout)
	}
	for i, s := range sends {
		if s.ptr != sends[0].ptr {
			t.Errorf("send %d used a different backing array: payload was re-encoded", i)
		}
		var f wire.Frame
		if err := wire.DecodeInto(&f, s.frame); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if f.DestContext != want[i].ctx || f.DestEndpoint != want[i].ep {
			t.Errorf("send %d addressed to (%d,%d), want (%d,%d)",
				i, f.DestContext, f.DestEndpoint, want[i].ctx, want[i].ep)
		}
		if string(f.Payload) != string(sends[0].frame[len(sends[0].frame)-len(f.Payload):]) {
			t.Errorf("send %d payload differs", i)
		}
	}
}
