//go:build linux

package shm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nexus/internal/transport"
)

func newPair(t *testing.T, recvParams, sendParams transport.Params) (*Module, *Module, transport.Descriptor, *sinkFrames) {
	t.Helper()
	if recvParams == nil {
		recvParams = transport.Params{}
	}
	if sendParams == nil {
		sendParams = transport.Params{}
	}
	if recvParams["dir"] == "" {
		recvParams["dir"] = t.TempDir()
	}
	if sendParams["dir"] == "" {
		sendParams["dir"] = t.TempDir()
	}
	sink := &sinkFrames{}
	recv := New(values(recvParams))
	desc, err := recv.Init(transport.Env{Context: 1, Sink: sink})
	if err != nil {
		t.Fatalf("recv Init: %v", err)
	}
	t.Cleanup(func() { recv.Close() })
	send := New(values(sendParams))
	if _, err := send.Init(transport.Env{Context: 2, Sink: &sinkFrames{}}); err != nil {
		t.Fatalf("send Init: %v", err)
	}
	t.Cleanup(func() { send.Close() })
	return recv, send, *desc, sink
}

// values checks p against the module's declaration, as the registry does
// before calling the factory.
func values(p transport.Params) transport.Values {
	v, err := transport.Default.Parse(Name, p)
	if err != nil {
		panic(err)
	}
	return v
}

func pollUntil(t *testing.T, m *Module, sink *sinkFrames, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.frames) < want {
		if _, err := m.Poll(); err != nil {
			t.Fatalf("Poll: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames after deadline", len(sink.frames), want)
		}
	}
}

func TestModuleRoundTrip(t *testing.T) {
	recv, send, desc, sink := newPair(t, nil, nil)
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sent [][]byte
	for i, size := range []int{1, 100, 4 << 10, 1 << 20} {
		f := pattern(byte(i+1), size)
		if err := c.Send(f); err != nil {
			t.Fatalf("Send(%d): %v", size, err)
		}
		sent = append(sent, f)
	}
	pollUntil(t, recv, sink, len(sent))
	for i := range sent {
		if !bytes.Equal(sink.frames[i], sent[i]) {
			t.Fatalf("frame %d corrupted or reordered", i)
		}
	}
	if got := recv.TransportStats()["shm.segments"]; got != 1 {
		t.Fatalf("receiver segments = %d, want 1", got)
	}
}

func TestBatchSendSingleDoorbell(t *testing.T) {
	recv, send, desc, sink := newPair(t, nil, nil)
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bs, ok := c.(transport.BatchSender)
	if !ok {
		t.Fatal("shm conn does not implement BatchSender")
	}
	var frames [][]byte
	for i := 0; i < 32; i++ {
		frames = append(frames, pattern(byte(i), 700))
	}
	if n, err := bs.SendBatch(frames); n != len(frames) || err != nil {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	pollUntil(t, recv, sink, len(frames))
	for i := range frames {
		if !bytes.Equal(sink.frames[i], frames[i]) {
			t.Fatalf("batched frame %d corrupted or reordered", i)
		}
	}
}

// TestReverseRingReuse: when B has accepted a segment from A, a dial B→A
// claims the reverse ring of that same segment — no second mapping, no
// rendezvous — and frames flow back through it. A is parked before it dials
// (transport.Reactive, rule 2), so the first frame on the ring it then starts
// consuming must raise an edge: a dialed segment's reverse ring starts armed.
func TestReverseRingReuse(t *testing.T) {
	aSink := &sinkFrames{}
	a := New(values(transport.Params{"dir": t.TempDir()}))
	aDesc, err := a.Init(transport.Env{Context: 1, Sink: aSink})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bSink := &sinkFrames{}
	b := New(values(transport.Params{"dir": t.TempDir()}))
	bDesc, err := b.Init(transport.Env{Context: 2, Sink: bSink})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < transport.ParkPolls; i++ {
		if _, err := a.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	ab, err := a.Dial(*bDesc)
	if err != nil {
		t.Fatal(err)
	}
	defer ab.Close()
	if err := ab.Send(pattern(1, 64)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, b, bSink, 1) // B attaches A's segment

	ba, err := b.Dial(*aDesc)
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	bc, ok := ba.(*conn)
	if !ok || !bc.rev {
		t.Fatalf("B→A dial did not claim the reverse ring (rev=%v)", ok && bc.rev)
	}
	if readable(a.rfd) {
		t.Fatal("A's fifo readable before B sent anything")
	}
	if err := ba.Send(pattern(2, 64)); err != nil {
		t.Fatal(err)
	}
	if !waitReadable(a.rfd, time.Second) {
		t.Fatal("first frame on a dialed segment's reverse ring raised no edge for its parked consumer")
	}
	pollUntil(t, a, aSink, 1) // A consumes its dialed segment's reverse ring
	if !bytes.Equal(aSink.frames[0], pattern(2, 64)) {
		t.Fatal("reverse frame corrupted")
	}
	if got := b.TransportStats()["shm.segments"]; got != 1 {
		t.Fatalf("B segments = %d, want 1 (reverse reuse must not map a second segment)", got)
	}
}

// TestDoorbellArmAndWake exercises the spin-then-park protocol end to end,
// reactor-attached and not, with the same expectations (transport.Reactive,
// rule 2): the consumer arms the in-ring flag at the ParkPolls-th consecutive
// empty poll and not before; the next producer publish clears it and makes
// the reactor fd readable, at the cost of exactly one doorbell.
func TestDoorbellArmAndWake(t *testing.T) {
	for _, attached := range []bool{false, true} {
		t.Run(fmt.Sprintf("attached=%v", attached), func(t *testing.T) {
			recv, send, desc, sink := newPair(t, nil, nil)
			if attached {
				if err := recv.AttachReactor(&fakeReadiness{}); err != nil {
					t.Fatal(err)
				}
			}
			c, err := send.Dial(desc)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Send(pattern(1, 32)); err != nil {
				t.Fatal(err)
			}
			pollUntil(t, recv, sink, 1)

			var seg *segment
			recv.mu.Lock()
			if len(recv.segs) == 1 {
				seg = recv.segs[0]
			}
			rfd := recv.rfd
			recv.mu.Unlock()
			if seg == nil {
				t.Fatal("receiver has no segment")
			}
			for i := 1; i < transport.ParkPolls; i++ {
				if n, err := recv.Poll(); n != 0 || err != nil {
					t.Fatalf("empty poll %d = %d, %v", i, n, err)
				}
			}
			if seg.ring[0].armed.Load() != 0 {
				t.Fatalf("doorbell armed before %d consecutive empty polls: a polled link would pay a syscall per message", transport.ParkPolls)
			}
			if _, err := recv.Poll(); err != nil {
				t.Fatal(err)
			}
			if seg.ring[0].armed.Load() != 1 {
				t.Fatalf("doorbell not armed after %d consecutive empty polls", transport.ParkPolls)
			}
			if readable(rfd) {
				t.Fatal("fifo readable before any doorbell")
			}
			rung := send.TransportStats()["shm.doorbells"]
			if err := c.Send(pattern(2, 32)); err != nil {
				t.Fatal(err)
			}
			if seg.ring[0].armed.Load() != 0 {
				t.Fatal("producer did not consume the armed flag")
			}
			if !waitReadable(rfd, time.Second) {
				t.Fatal("doorbell byte did not make the reactor fd readable")
			}
			pollUntil(t, recv, sink, 2)
			if !bytes.Equal(sink.frames[1], pattern(2, 32)) {
				t.Fatal("post-park frame corrupted")
			}
			// Traffic flows again: no further doorbells until the next park.
			if err := c.Send(pattern(3, 32)); err != nil {
				t.Fatal(err)
			}
			pollUntil(t, recv, sink, 3)
			if got := send.TransportStats()["shm.doorbells"] - rung; got != 1 {
				t.Fatalf("shm.doorbells grew by %d across one park, want 1", got)
			}
		})
	}
}

func readable(fd int) bool {
	var fds syscall.FdSet
	fds.Bits[fd/64] = 1 << (uint(fd) % 64)
	tv := syscall.Timeval{}
	n, err := syscall.Select(fd+1, &fds, nil, nil, &tv)
	return err == nil && n > 0
}

func waitReadable(fd int, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for !readable(fd) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestReactorAttach: the module registers exactly its FIFO read fd and
// removes it on detach and close.
func TestReactorAttach(t *testing.T) {
	recv, _, _, _ := newPair(t, nil, nil)
	fr := &fakeReadiness{}
	var m transport.Module = recv
	rm, ok := m.(transport.Reactive)
	if !ok {
		t.Fatal("shm module does not implement transport.Reactive")
	}
	if err := rm.AttachReactor(fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.added) != 1 || fr.added[0] != recv.rfd {
		t.Fatalf("registered fds %v, want [%d]", fr.added, recv.rfd)
	}
	rm.DetachReactor()
	if len(fr.removed) != 1 || fr.removed[0] != recv.rfd {
		t.Fatalf("removed fds %v, want [%d]", fr.removed, recv.rfd)
	}
}

type fakeReadiness struct{ added, removed []int }

func (f *fakeReadiness) Add(fd int) error { f.added = append(f.added, fd); return nil }
func (f *fakeReadiness) Remove(fd int)    { f.removed = append(f.removed, fd) }

func TestApplicableLocality(t *testing.T) {
	_, send, desc, _ := newPair(t, nil, nil)
	if !send.Applicable(desc) {
		t.Fatal("same-host descriptor not applicable")
	}
	other := desc.Clone()
	other.Attrs[attrHost] = desc.Attrs[attrHost] + "-elsewhere"
	if send.Applicable(other) {
		t.Fatal("foreign-host descriptor applicable: locality rule broken")
	}
	noCtl := desc.Clone()
	delete(noCtl.Attrs, attrCtl)
	if send.Applicable(noCtl) {
		t.Fatal("descriptor without a control FIFO applicable")
	}
	wrongMethod := desc.Clone()
	wrongMethod.Method = "tcp"
	if send.Applicable(wrongMethod) {
		t.Fatal("foreign method applicable")
	}
}

// TestApplicableDeadPeer: once the receiver is gone (dir removed), its
// descriptor stops matching, so selection falls over to another method
// instead of dialing a ghost.
func TestApplicableDeadPeer(t *testing.T) {
	recv, send, desc, _ := newPair(t, nil, nil)
	if !send.Applicable(desc) {
		t.Fatal("live descriptor not applicable")
	}
	recv.Close()
	if send.Applicable(desc) {
		t.Fatal("descriptor of a closed receiver still applicable")
	}
	if _, err := send.Dial(desc); !errors.Is(err, transport.ErrNotApplicable) {
		t.Fatalf("Dial(dead peer) = %v, want ErrNotApplicable", err)
	}
}

func TestOversizeRejected(t *testing.T) {
	_, send, desc, _ := newPair(t, nil, nil)
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	limit := send.MaxMessage()
	if err := c.Send(make([]byte, limit+1)); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("Send(limit+1) = %v, want ErrTooLarge", err)
	}
	if err := c.Send(pattern(1, 64)); err != nil {
		t.Fatalf("conn unusable after oversize rejection: %v", err)
	}
}

// TestSendTimeoutOnStuckConsumer: a peer that attached but stopped draining
// must not wedge the sender forever — a full ring times out.
func TestSendTimeoutOnStuckConsumer(t *testing.T) {
	recv, send, desc, sink := newPair(t,
		transport.Params{"ring": "65536"},
		transport.Params{"ring": "65536", "send_timeout": "100ms"})
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(pattern(1, 64)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, recv, sink, 1) // attach happens, then the consumer goes silent
	frame := pattern(2, 30000)
	start := time.Now()
	var sendErr error
	for i := 0; i < 10; i++ {
		if sendErr = c.Send(frame); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("sends into a 64 KiB ring with a stuck consumer all succeeded")
	}
	if errors.Is(sendErr, transport.ErrClosed) || errors.Is(sendErr, transport.ErrTooLarge) {
		t.Fatalf("wrong error class: %v", sendErr)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v, configured 100ms", elapsed)
	}
}

// TestPeerModuleCloseFailsSends: the receiver closing its module marks the
// shared rings closed, so the sender's next Send fails fast with ErrClosed
// (feeding the core's failover) instead of timing out.
func TestPeerModuleCloseFailsSends(t *testing.T) {
	recv, send, desc, sink := newPair(t, nil, nil)
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(pattern(1, 64)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, recv, sink, 1)
	recv.Close()
	if err := c.Send(pattern(2, 64)); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after peer close = %v, want ErrClosed", err)
	}
}

// TestAcceptorReapsClosedSegment: when the dialer closes its connection the
// acceptor drains, unmaps, and forgets the segment.
func TestAcceptorReapsClosedSegment(t *testing.T) {
	recv, send, desc, sink := newPair(t, nil, nil)
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(pattern(1, 64)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, recv, sink, 1)
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for recv.TransportStats()["shm.segments"] != 0 {
		if _, err := recv.Poll(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("segment not reaped: %d live", recv.TransportStats()["shm.segments"])
		}
	}
}

// TestFIFOGarbageIgnored: anything same-host processes scribble on the
// control FIFO — partial lines, binary noise, traversal attempts — must be
// discarded without disturbing real attaches.
func TestFIFOGarbageIgnored(t *testing.T) {
	recv, send, desc, sink := newPair(t, nil, nil)
	w, err := os.OpenFile(desc.Attr(attrCtl), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	garbage := []string{
		"A ../../etc/passwd 1 \"x\"\n",
		"A no-such-file 1 \"x\"\n",
		"\x00\x01\x02\n",
		"half a line with no newline yet",
	}
	for _, g := range garbage {
		if _, err := w.WriteString(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := recv.Poll(); err != nil {
		t.Fatalf("Poll over garbage: %v", err)
	}
	w.WriteString("\n") // terminate the partial line
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(pattern(7, 128)); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, recv, sink, 1)
	if recv.TransportStats()["shm.attach.rejected"] == 0 {
		t.Fatal("hostile attach lines were not counted as rejected")
	}
}

// TestStaleSweep: Init removes orphaned sibling segment directories (dead
// FIFO, old mtime) and leaves live ones alone.
func TestStaleSweep(t *testing.T) {
	base := t.TempDir()

	// A live module whose directory merely looks old.
	live := New(values(transport.Params{"dir": base}))
	if _, err := live.Init(transport.Env{Context: 1, Sink: &sinkFrames{}}); err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	old := time.Now().Add(-time.Hour)
	os.Chtimes(live.dir, old, old)

	// A crashed owner: directory and FIFO exist, nobody holds the read end.
	stale := filepath.Join(base, "nexus-shm-stale1")
	if err := os.Mkdir(stale, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(filepath.Join(stale, "ctl.fifo"), 0o600); err != nil {
		t.Fatal(err)
	}
	os.Chtimes(stale, old, old)

	// A fresh directory without a reader: too young to sweep.
	young := filepath.Join(base, "nexus-shm-young")
	if err := os.Mkdir(young, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(filepath.Join(young, "ctl.fifo"), 0o600); err != nil {
		t.Fatal(err)
	}

	m := New(values(transport.Params{"dir": base}))
	if _, err := m.Init(transport.Env{Context: 2, Sink: &sinkFrames{}}); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale directory survived the sweep")
	}
	if _, err := os.Stat(live.dir); err != nil {
		t.Fatal("live (old but owned) directory was swept")
	}
	if _, err := os.Stat(young); err != nil {
		t.Fatal("young ownerless directory was swept early")
	}
	if m.TransportStats()["shm.stale.swept"] != 1 {
		t.Fatalf("swept = %d, want 1", m.TransportStats()["shm.stale.swept"])
	}
}

// TestCrossProcessRoundTrip re-executes the test binary as a child process
// that dials this process's descriptor and streams frames through the
// mapped segment — shared memory between two real address spaces, the
// paper's intra-node case.
func TestCrossProcessRoundTrip(t *testing.T) {
	sink := &sinkFrames{}
	recv := New(values(transport.Params{"dir": t.TempDir()}))
	desc, err := recv.Init(transport.Env{Context: 1, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	dj, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperShmChildSend$", "-test.v")
	cmd.Env = append(os.Environ(), "NEXUS_SHM_CHILD_DESC="+string(dj))
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "PASS") {
		t.Fatalf("child sender failed: %v\n%s", err, out)
	}
	const want = 64
	pollUntil(t, recv, sink, want)
	for i := 0; i < want; i++ {
		if !bytes.Equal(sink.frames[i], pattern(byte(i+1), 1000)) {
			t.Fatalf("cross-process frame %d corrupted or reordered", i)
		}
	}
}

// TestHelperShmChildSend is the child half of TestCrossProcessRoundTrip; it
// only runs when re-executed with the descriptor in the environment.
func TestHelperShmChildSend(t *testing.T) {
	dj := os.Getenv("NEXUS_SHM_CHILD_DESC")
	if dj == "" {
		t.Skip("helper for TestCrossProcessRoundTrip")
	}
	var desc transport.Descriptor
	if err := json.Unmarshal([]byte(dj), &desc); err != nil {
		t.Fatal(err)
	}
	m := New(values(nil))
	if _, err := m.Init(transport.Env{Context: 99, Sink: &sinkFrames{}}); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := m.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := c.Send(pattern(byte(i+1), 1000)); err != nil {
			t.Fatalf("child Send %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndHints(t *testing.T) {
	recv, send, desc, sink := newPair(t, nil, nil)
	var m transport.Module = recv
	if _, ok := m.(transport.StatsReporter); !ok {
		t.Fatal("shm module does not implement StatsReporter")
	}
	if _, ok := m.(transport.CostHinter); !ok {
		t.Fatal("shm module does not implement CostHinter")
	}
	if _, ok := m.(transport.SizeLimiter); !ok {
		t.Fatal("shm module does not implement SizeLimiter")
	}
	if adv := desc.MaxMessage(); adv != send.MaxMessage() {
		t.Fatalf("descriptor advertises %d, module enforces %d", adv, send.MaxMessage())
	}
	c, err := send.Dial(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Send(pattern(byte(i), 256)); err != nil {
			t.Fatal(err)
		}
	}
	pollUntil(t, recv, sink, 5)
	st := recv.TransportStats()
	if st["shm.frames.in"] < 5 {
		t.Fatalf("frames.in = %d, want >= 5", st["shm.frames.in"])
	}
	if st["shm.attaches"] != 1 {
		t.Fatalf("attaches = %d, want 1", st["shm.attaches"])
	}
	_ = fmt.Sprint(st)
}
