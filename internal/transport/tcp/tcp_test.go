package tcp

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

func (c *collect) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.frames))
	copy(out, c.frames)
	return out
}

// newModule builds a module through the registry, as a context does.
func newModule(p transport.Params) *Module {
	m, err := transport.Default.New(Name, p)
	if err != nil {
		panic(err)
	}
	return m.(*Module)
}

func initModule(t *testing.T, p transport.Params, ctx transport.ContextID, sink transport.Sink) (*Module, transport.Descriptor) {
	t.Helper()
	m := newModule(p)
	d, err := m.Init(transport.Env{Context: ctx, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, *d
}

// pollUntil polls m until the predicate holds or the deadline passes.
func pollUntil(t *testing.T, m *Module, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

func TestSendPollRoundTrip(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	send, _ := initModule(t, nil, 2, &collect{})

	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte{7}, 100_000)}
	for _, f := range want {
		if err := c.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	pollUntil(t, recv, func() bool { return len(sink.snapshot()) == len(want) })
	got := sink.snapshot()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d: got %d bytes, want %d", i, len(got[i]), len(want[i]))
		}
	}
}

// TestInitRejectsBlockMode: the blocking-reader mode is removed and tcp
// declares no "mode" key, so a module asked for any mode must refuse to be
// built, naming the key, rather than silently wait for a Poll its context
// may never make.
func TestInitRejectsBlockMode(t *testing.T) {
	for _, mode := range []string{"block", "poll"} {
		m, err := transport.Default.New(Name, transport.Params{"mode": mode})
		if !errors.Is(err, transport.ErrBadParam) || !strings.Contains(err.Error(), "mode") {
			t.Errorf("New(mode=%s) = %v, %v; want a bad parameter naming mode", mode, m, err)
		}
	}
}

func TestPartialFrameReassembly(t *testing.T) {
	// Send a frame byte-by-byte over a raw socket to force the poll-mode
	// reassembly path through many partial reads.
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	send, _ := initModule(t, nil, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := []byte("fragmented")
	done := make(chan error, 1)
	go func() {
		// The outConn serializes whole frames; emulate fragmentation by
		// sending two frames back to back with tiny pauses while the
		// receiver polls continuously.
		for i := 0; i < 3; i++ {
			if err := c.Send(payload); err != nil {
				done <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		done <- nil
	}()
	pollUntil(t, recv, func() bool { return len(sink.snapshot()) == 3 })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, f := range sink.snapshot() {
		if !bytes.Equal(f, payload) {
			t.Errorf("frame %d corrupted: %q", i, f)
		}
	}
}

func TestApplicable(t *testing.T) {
	m := newModule(nil)
	if m.Applicable(transport.Descriptor{Method: Name}) {
		t.Error("descriptor without addr applicable")
	}
	if !m.Applicable(transport.Descriptor{Method: Name, Attrs: map[string]string{"addr": "127.0.0.1:1"}}) {
		t.Error("descriptor with addr not applicable")
	}
	if m.Applicable(transport.Descriptor{Method: "udp", Attrs: map[string]string{"addr": "x"}}) {
		t.Error("wrong method applicable")
	}
}

func TestLifecycleErrors(t *testing.T) {
	m := newModule(nil)
	if _, err := m.Poll(); !errors.Is(err, transport.ErrNotInitialized) {
		t.Errorf("Poll before Init: %v", err)
	}
	if _, err := m.Dial(transport.Descriptor{Method: Name, Attrs: map[string]string{"addr": "127.0.0.1:1"}}); !errors.Is(err, transport.ErrNotInitialized) {
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
	if err := m.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if _, err := m.Poll(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Poll after Close: %v", err)
	}
}

func TestPeerDisconnectReaped(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	send, _ := initModule(t, nil, 2, &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	pollUntil(t, recv, func() bool { return len(sink.snapshot()) == 1 })
	// After the close is observed, further polls must not error and the dead
	// connection must be reaped (no growth in work per poll).
	for i := 0; i < 10; i++ {
		if _, err := recv.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	recv.mu.Lock()
	n := len(recv.inbound)
	recv.mu.Unlock()
	if n != 0 {
		t.Errorf("%d inbound conns still tracked after peer close", n)
	}
}

func TestPollCostHint(t *testing.T) {
	var m transport.Module = newModule(nil)
	h, ok := m.(transport.CostHinter)
	if !ok {
		t.Fatal("tcp module should hint poll cost")
	}
	if h.PollCostHint() <= 0 {
		t.Error("non-positive poll cost hint")
	}
}

func TestRegisteredInDefaultRegistry(t *testing.T) {
	if !transport.Default.Has(Name) {
		t.Fatal("tcp module not registered")
	}
}

// nopReadiness accepts every registration; it only makes a module "attached".
type nopReadiness struct{}

func (nopReadiness) Add(int) error { return nil }
func (nopReadiness) Remove(int)    {}

// TestPollBoundHoldsWhenAttached pins transport.Reactive rule 1 on the
// attached module: with more than maxPollReads reads' worth pending on one
// connection, a Poll stops at the bound, reports the frames it delivered, and
// later Polls finish the job. A 64 B read buffer makes one read at most two
// of the train's 32 B frames, so no Poll may deliver more than 2·maxPollReads.
func TestPollBoundHoldsWhenAttached(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	recv.buf.size = 64 // before the first Poll, which builds the buffer
	send, _ := initModule(t, nil, 2, &collect{})
	if err := recv.AttachReactor(nopReadiness{}); err != nil {
		t.Fatal(err)
	}
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, recv, func() bool { return len(sink.snapshot()) == 1 })

	const frames, perPoll = 1000, 2 * maxPollReads
	for i := 0; i < frames; i++ {
		if err := c.Send(bytes.Repeat([]byte{byte(i)}, 28)); err != nil {
			t.Fatal(err)
		}
	}
	reported, most := 0, 0
	for deadline := time.Now().Add(5 * time.Second); len(sink.snapshot()) < 1+frames; {
		n, err := recv.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if n > perPoll {
			t.Fatalf("one Poll delivered %d frames, more than %d reads of 64 B hold", n, maxPollReads)
		}
		reported += n
		most = max(most, n)
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames delivered", len(sink.snapshot())-1, frames)
		}
	}
	if reported != frames {
		t.Errorf("Polls reported %d frames, delivered %d", reported, frames)
	}
	if most != perPoll {
		t.Errorf("no Poll stopped at the bound (most frames in one Poll: %d, bound %d)", most, perPoll)
	}
	for i, got := range sink.snapshot()[1:] {
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 28)) {
			t.Fatalf("frame %d corrupted across bounded passes", i)
		}
	}
}

// TestConcurrentPolls runs four goroutines calling Poll on one module while
// two connections stream frames of 1–200 B through a 64 B read buffer, so
// passes lend the buffer, connections keep it across partial frames and
// large frames take landing buffers, all under contention for the pass.
// Every frame must arrive intact and in its connection's order.
func TestConcurrentPolls(t *testing.T) {
	sink := &collect{}
	recv, d := initModule(t, nil, 1, sink)
	recv.buf.size = 64
	const perConn = 300
	var want [2][][]byte
	for s := range want {
		var stream []byte
		for i := 0; i < perConn; i++ {
			f := append([]byte{byte(s)}, pattern((i*13)%200, i)...)
			want[s] = append(want[s], f)
			stream = append(stream, encodeStream(f)...)
		}
		c, err := net.Dial("tcp", d.Attr("addr"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			for off := 0; off < len(stream); off += 37 {
				if _, err := c.Write(stream[off:min(off+37, len(stream))]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := recv.Poll(); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(sink.snapshot()) < 2*perConn && time.Now().Before(deadline); {
		if _, err := recv.Poll(); err != nil {
			t.Error(err)
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	var got [2][][]byte
	for _, f := range sink.snapshot() {
		got[f[0]] = append(got[f[0]], f)
	}
	for s := range want {
		if len(got[s]) != perConn {
			t.Fatalf("conn %d: %d of %d frames delivered", s, len(got[s]), perConn)
		}
		for i := range want[s] {
			if !bytes.Equal(got[s][i], want[s][i]) {
				t.Fatalf("conn %d: frame %d corrupted or out of order", s, i)
			}
		}
	}
}
