// Package tcp implements the TCP/IP communication module.
//
// TCP is the paper's "expensive but universal" method: it reaches any
// context with IP connectivity, but detecting inbound traffic requires a
// select-like readiness scan whose cost dwarfs that of specialized methods.
// Poll performs a non-blocking read on every inbound connection (the
// zero-timeout select(2) analogue). Its cost grows with connection count and
// is orders of magnitude above an inproc poll, which is exactly the
// asymmetry that motivates skip_poll. Where the context runs a readiness
// reactor (Linux), AttachReactor hands the connections' fds to it, and the
// polling loop probes the module only when the kernel reports data: the
// reactor's one waiter goroutine is the paper's blocked detection thread,
// for every socket-backed method at once.
package tcp

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"nexus/internal/bufpool"
	"nexus/internal/transport"
	"nexus/internal/transport/rawpoll"
	"nexus/internal/wire"
)

// Name is the method name used in descriptors and resource strings.
const Name = "tcp"

func init() {
	transport.Register(Name, []transport.Param{
		{Key: "listen", Default: "127.0.0.1:0", Doc: "listen address"},
		{Key: "nodelay", Default: true, Doc: "set TCP_NODELAY on connections"},
		{Key: "sndbuf", Default: 0, Min: 0, Doc: "socket send buffer in bytes (0 = OS default)"},
		{Key: "rcvbuf", Default: 0, Min: 0, Doc: "socket receive buffer in bytes (0 = OS default)"},
		{Key: "maxpending", Default: 8 << 20, Min: -1, Doc: "per-connection cap in bytes on data frames queued behind an in-flight write (-1 = unbounded; control frames are never bounded)"},
	}, func(v transport.Values) (transport.Module, error) {
		return &Module{listen: v.Str("listen"), nodelay: v.Bool("nodelay"), sndbuf: v.Int("sndbuf"),
			rcvbuf: v.Int("rcvbuf"), maxPending: v.Int("maxpending")}, nil
	})
}

// Module is a TCP communication method instance.
type Module struct {
	listen     string
	nodelay    bool
	sndbuf     int
	rcvbuf     int
	maxPending int

	mu       sync.Mutex
	env      transport.Env
	ln       net.Listener
	inbound  []*inConn
	outbound map[*outConn]struct{}
	rdy      transport.Readiness // non-nil while reactor-attached
	inited   bool
	closed   bool
	acceptWG sync.WaitGroup

	// passMu serializes poll passes. Core already runs one pass at a time,
	// but the module contract lets anyone call Poll at any time, and the
	// pass owns buf and conns.
	passMu sync.Mutex
	buf    readBuf
	conns  []*inConn // per-pass snapshot of inbound, cleared after the pass
}

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

// Init starts the listener and the accept loop.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inited {
		return nil, fmt.Errorf("tcp: double Init for context %d", env.Context)
	}
	ln, err := net.Listen("tcp", m.listen)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen: %w", err)
	}
	m.env = env
	m.ln = ln
	m.inited = true
	m.acceptWG.Add(1)
	go m.acceptLoop(ln)
	return &transport.Descriptor{
		Method:  Name,
		Context: env.Context,
		Attrs:   map[string]string{"addr": ln.Addr().String()},
	}, nil
}

func (m *Module) acceptLoop(ln net.Listener) {
	defer m.acceptWG.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.tune(c)
		ic := &inConn{c: c, rb: &m.buf}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			c.Close()
			return
		}
		m.inbound = append(m.inbound, ic)
		if m.rdy != nil {
			// EPOLL_CTL_ADD reports an already-readable fd once even in
			// edge-triggered mode, so data that raced the registration is
			// not lost.
			ic.watch(m.rdy)
		}
		m.mu.Unlock()
	}
}

func (m *Module) tune(c net.Conn) {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return
	}
	// Best effort, all three: a refused option costs latency (Nagle) or
	// throughput (a capped kernel buffer), never a frame, and a socket that
	// is already broken fails its first read or write instead.
	_ = tc.SetNoDelay(m.nodelay)
	if m.sndbuf > 0 {
		_ = tc.SetWriteBuffer(m.sndbuf)
	}
	if m.rcvbuf > 0 {
		_ = tc.SetReadBuffer(m.rcvbuf)
	}
}

// Applicable reports whether remote advertises a TCP address. TCP is the
// universal fallback: any advertised address is assumed routable.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	return remote.Method == Name && remote.Attr("addr") != ""
}

// Dial opens a TCP connection to the remote context.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	m.mu.Lock()
	inited, closed := m.inited, m.closed
	m.mu.Unlock()
	if !inited {
		return nil, transport.ErrNotInitialized
	}
	if closed {
		return nil, transport.ErrClosed
	}
	if !m.Applicable(remote) {
		return nil, transport.ErrNotApplicable
	}
	c, err := net.DialTimeout("tcp", remote.Attr("addr"), 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial %s: %w", remote.Attr("addr"), err)
	}
	m.tune(c)
	oc := newOutConn(c, m.maxPending)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.Close()
		return nil, transport.ErrClosed
	}
	if m.outbound == nil {
		m.outbound = make(map[*outConn]struct{})
	}
	m.outbound[oc] = struct{}{}
	m.mu.Unlock()
	oc.unregister = func() {
		m.mu.Lock()
		delete(m.outbound, oc)
		m.mu.Unlock()
	}
	return oc, nil
}

// Poll performs one readiness scan over all inbound connections, delivering
// any complete frames. Each connection is read until its socket reports
// "would block" or maxPollReads is reached, so one fire-hosing peer cannot
// monopolize the polling loop. A connection that consumed bytes without
// completing a frame — a large frame still streaming in, or a pass that
// stopped at the bound — counts as one unit of activity (transport.Reactive,
// rule 1), so pollers keep probing instead of treating the pass as idle.
func (m *Module) Poll() (int, error) {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	m.mu.Lock()
	if !m.inited {
		m.mu.Unlock()
		return 0, transport.ErrNotInitialized
	}
	if m.closed {
		m.mu.Unlock()
		return 0, transport.ErrClosed
	}
	m.conns = append(m.conns[:0], m.inbound...)
	sink := m.env.Sink
	m.mu.Unlock()

	total := 0
	anyDead := false
	for _, ic := range m.conns {
		n, progressed := ic.poll(sink)
		if n == 0 && progressed {
			n = 1 // mid-frame: bytes consumed, remainder en route
		}
		total += n
		if ic.dead() {
			anyDead = true
		}
	}
	clear(m.conns) // the snapshot must not keep reaped connections alive
	if anyDead {
		m.reap()
	}
	return total, nil
}

func (m *Module) reap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.inbound[:0]
	for _, ic := range m.inbound {
		if ic.dead() {
			if m.rdy != nil {
				ic.unwatch(m.rdy) // before close: the OS may reuse the fd
			}
			ic.c.Close()
			continue
		}
		kept = append(kept, ic)
	}
	m.inbound = kept
}

// AttachReactor implements transport.Reactive: every inbound connection's fd
// joins the reactor's watch set (the accept loop keeps the set current). The
// listener itself needs no registration — accepts happen on a dedicated
// blocked goroutine.
func (m *Module) AttachReactor(r transport.Readiness) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.inited {
		return transport.ErrNotInitialized
	}
	if m.closed {
		return transport.ErrClosed
	}
	for _, ic := range m.inbound {
		ic.watch(r)
	}
	m.rdy = r
	return nil
}

// DetachReactor implements transport.Reactive.
func (m *Module) DetachReactor() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rdy == nil {
		return
	}
	for _, ic := range m.inbound {
		ic.unwatch(m.rdy)
	}
	m.rdy = nil
}

// MaxMessage implements transport.SizeLimiter: a stream carries any legal
// wire frame, so the only bound is the wire format's own.
func (m *Module) MaxMessage() int { return wire.MaxFrameLen() }

// TransportStats implements transport.StatsReporter: the bytes currently
// queued behind in-flight writes across all outbound connections — the
// send-side backlog a slow peer is costing this context right now.
func (m *Module) TransportStats() map[string]uint64 {
	m.mu.Lock()
	out := make([]*outConn, 0, len(m.outbound))
	for oc := range m.outbound {
		out = append(out, oc)
	}
	m.mu.Unlock()
	var pend uint64
	for _, oc := range out {
		pend += oc.pendingBytes()
	}
	return map[string]uint64{"tcp.pending.bytes": pend}
}

// PollCostHint implements transport.CostHinter: a readiness scan costs on the
// order of a system call per connection, far above an in-memory queue check.
func (m *Module) PollCostHint() time.Duration { return 100 * time.Microsecond }

// Close shuts the listener and all inbound connections down.
func (m *Module) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	ln := m.ln
	conns := m.inbound
	m.inbound = nil
	out := make([]*outConn, 0, len(m.outbound))
	for oc := range m.outbound {
		out = append(out, oc)
	}
	m.outbound = nil
	rdy := m.rdy
	m.rdy = nil
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, ic := range conns {
		if rdy != nil {
			ic.unwatch(rdy) // before close: the OS may reuse the fd number
		}
		ic.c.Close()
	}
	for _, oc := range out {
		oc.tearDown()
	}
	m.acceptWG.Wait()
	return nil
}

// readBufSize is the length of the read buffer a poll pass lends to each
// inbound connection in turn.
const readBufSize = 64 << 10

// readBuf is a module's read buffer between connections. A poll pass lends
// it to each connection it reads; a connection that ends its turn inside a
// frame small enough for the buffer keeps it, and the next borrower gets a
// fresh one from bufpool. Only the pass that holds the module's passMu uses
// it.
type readBuf struct {
	size int    // buffer length; 0 means readBufSize (a test seam)
	idle []byte // the buffer no connection holds, nil until first lent
}

func (rb *readBuf) lend() []byte {
	if b := rb.idle; b != nil {
		rb.idle = nil
		return b
	}
	return bufpool.Get(cmp.Or(rb.size, readBufSize))
}

func (rb *readBuf) giveBack(b []byte) {
	if rb.idle == nil {
		rb.idle = b
	} else {
		bufpool.Put(b)
	}
}

// inConn is an inbound connection with incremental frame-reassembly state for
// poll mode. Every byte is read once, into the memory it is delivered from:
// frames that fit in the read buffer are delivered straight from it, and a
// larger frame is read directly into its own pooled landing buffer. At rest
// a connection holds a read buffer only while it is inside such a small
// frame.
type inConn struct {
	c  net.Conn
	rb *readBuf // the module's

	mu      sync.Mutex
	rd      *rawpoll.Reader
	buf     []byte // lent read buffer; buf[:have] is the start of an incomplete frame
	have    int
	frame   []byte // landing buffer of a frame larger than buf, nil when none
	landed  int    // bytes of frame read so far
	fd      int
	watched bool
	isDead  bool
}

func (ic *inConn) dead() bool {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.isDead
}

// watch registers the connection's fd with the reactor. Best effort: a
// connection whose fd cannot be extracted or registered stays poll-only (the
// reactor counts and logs a refused registration itself).
func (ic *inConn) watch(r transport.Readiness) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.watched || ic.isDead {
		return
	}
	sc, ok := ic.c.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	fd := -1
	if rc.Control(func(f uintptr) { fd = int(f) }) != nil || fd < 0 || r.Add(fd) != nil {
		return
	}
	ic.fd = fd
	ic.watched = true
}

// unwatch removes the connection's fd from the reactor. Must precede closing
// the socket.
func (ic *inConn) unwatch(r transport.Readiness) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.watched {
		r.Remove(ic.fd)
		ic.watched = false
	}
}

// maxPollReads bounds one poll pass per connection: reads of up to the read
// buffer's 64 KiB, or of up to the remainder of a large frame.
const maxPollReads = 16

// poll reads the connection until the socket reports empty or the per-pass
// bound is reached, and delivers every frame completed so far. It also
// reports whether any bytes were consumed. It borrows the read buffer for
// the turn and gives it back unless the turn ends inside a small frame.
func (ic *inConn) poll(sink transport.Sink) (int, bool) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.isDead {
		return 0, false
	}
	if ic.rd == nil {
		sc, ok := ic.c.(syscall.Conn)
		if !ok {
			ic.isDead = true
			return 0, false
		}
		rd, err := rawpoll.NewReader(sc)
		if err != nil {
			ic.isDead = true
			return 0, false
		}
		ic.rd = rd
	}
	if ic.buf == nil {
		ic.buf = ic.rb.lend()
	}
	delivered := 0
	progressed := false
	for reads := 0; reads < maxPollReads; reads++ {
		dst := ic.buf[ic.have:]
		if ic.frame != nil {
			dst = ic.frame[ic.landed:]
		}
		n, err := ic.rd.Read(dst)
		if n > 0 {
			progressed = true
			if ic.frame == nil {
				delivered += ic.parse(sink, ic.have+n)
				if ic.isDead { // parse poisons the conn on a malformed frame
					break
				}
			} else {
				ic.landed += n
				if ic.landed == len(ic.frame) {
					sink.Deliver(ic.frame)
					bufpool.Put(ic.frame) // Deliver borrows; the frame is ours to recycle
					ic.frame = nil
					delivered++
				}
			}
		}
		if err != nil {
			if !errors.Is(err, rawpoll.ErrWouldBlock) {
				ic.isDead = true
			}
			break
		}
	}
	if ic.isDead {
		ic.have = 0
		if ic.frame != nil {
			bufpool.Put(ic.frame)
			ic.frame = nil
		}
	}
	if ic.have == 0 {
		ic.rb.giveBack(ic.buf)
		ic.buf = nil
	}
	return delivered, progressed
}

// parse consumes buf[:end]. Every whole frame is delivered straight from
// buf; a frame too large for buf gets its landing buffer as soon as its
// length prefix has passed the MaxFrameLen check, with the bytes already
// read copied in; an incomplete smaller frame is moved to the front.
func (ic *inConn) parse(sink transport.Sink, end int) int {
	delivered, off := 0, 0
	for end-off >= 4 {
		b := ic.buf[off:end]
		size := int(binary.BigEndian.Uint32(b))
		if size > wire.MaxFrameLen() {
			// The old clamp (MaxPayload plus hand-picked slack) undercounted
			// the header and killed connections carrying legal frames with
			// maximal handler names; MaxFrameLen accounts for every header
			// version and extension.
			ic.isDead = true
			return delivered
		}
		if 4+size > len(ic.buf) {
			ic.frame = bufpool.Get(size)
			ic.landed = copy(ic.frame, b[4:])
			ic.have = 0
			return delivered
		}
		if len(b) < 4+size {
			break
		}
		sink.Deliver(b[4 : 4+size])
		off += 4 + size
		delivered++
	}
	ic.have = copy(ic.buf, ic.buf[off:end])
	return delivered
}

// outConn is an outbound connection. Concurrent Sends interleave at frame
// granularity, but instead of serializing whole write syscalls behind a
// mutex, senders coalesce: the first sender becomes the writer and issues a
// single vectored write (length prefix + frame, one writev instead of the
// two write calls wire.WriteFrame used to make); senders that arrive while
// a write is in flight append their length-prefixed frames to a pending
// queue, and the writer drains that queue — one syscall per batch — before
// retiring. Queue order is append order under oc.mu, so per-connection
// frame ordering is preserved within each class.
//
// The queue is split by traffic class. Control-class frames (read straight
// off the encoded flags byte, wire.FrameClass) go to pendingCtl, which is
// never bounded and drains before any data batch — a credit grant or health
// probe is on the socket ahead of however much bulk backlog a stalled peer
// has built up. Everything else goes to pendingData, which is capped at
// maxPending bytes: a sender that would overflow it blocks until the writer
// flushes, so a slow peer surfaces as sender backpressure instead of
// unbounded process memory.
type outConn struct {
	c          net.Conn
	maxPending int // pendingData byte cap; <=0 = unbounded

	// unregister removes this conn from the module's outbound set so a later
	// Dial builds a fresh connection instead of finding a poisoned one; set
	// by Dial, nil for directly constructed conns. teardown runs the socket
	// close + unregister exactly once — on the first write error or on Close.
	unregister func()
	teardown   sync.Once
	closeErr   error

	mu          sync.Mutex
	flushed     sync.Cond // broadcast after every drain pass and on error
	writing     bool      // a sender goroutine currently owns the socket
	pendingCtl  []byte    // length-prefixed control frames queued behind the writer
	pendingData []byte    // length-prefixed data frames queued behind the writer
	queuedCtl   uint64    // cumulative bytes ever appended to pendingCtl
	queuedData  uint64    // cumulative bytes ever appended to pendingData
	doneCtl     uint64    // cumulative pendingCtl bytes flushed
	doneData    uint64    // cumulative pendingData bytes flushed
	err         error     // sticky first write error
	hdr         [4]byte   // writer-owned length prefix for the vectored path
	iov         net.Buffers
}

func newOutConn(c net.Conn, maxPending int) *outConn {
	oc := &outConn{c: c, maxPending: maxPending}
	oc.flushed.L = &oc.mu
	return oc
}

func (oc *outConn) Send(frame []byte) error {
	if len(frame) > wire.MaxFrameLen() {
		// A caller error, not a socket error: the connection stays usable.
		return fmt.Errorf("tcp: frame of %d bytes exceeds wire.MaxFrameLen: %w",
			len(frame), transport.ErrTooLarge)
	}
	ctl := wire.FrameClass(frame) == wire.ClassControl
	oc.mu.Lock()
	for {
		if oc.err != nil {
			err := oc.err
			oc.mu.Unlock()
			oc.tearDown()
			return err
		}
		if !oc.writing {
			// Fast path: no write in flight. Claim the socket and write this
			// frame with a single vectored syscall, borrowing the caller's
			// slice (no copy). hdr/iov are owned by the writer, so mutating
			// them after unlocking is safe.
			oc.writing = true
			binary.BigEndian.PutUint32(oc.hdr[:], uint32(len(frame)))
			oc.iov = append(oc.iov[:0], oc.hdr[:], frame)
			oc.mu.Unlock()
			_, werr := oc.iov.WriteTo(oc.c)
			oc.iov = oc.iov[:0] // drop the borrowed frame reference
			oc.mu.Lock()
			if werr != nil && oc.err == nil {
				oc.err = werr
			}
			oc.drainLocked() // flush whatever queued up while we wrote
			failed := oc.err != nil
			oc.mu.Unlock()
			if failed {
				oc.tearDown()
			}
			return werr
		}
		if ctl || oc.maxPending <= 0 || len(oc.pendingData) == 0 ||
			len(oc.pendingData)+4+len(frame) <= oc.maxPending {
			break
		}
		// Data queue at capacity: wait for the writer to flush a batch. The
		// empty-queue admission above lets a single frame larger than the
		// whole cap through once the queue drains, guaranteeing progress.
		oc.flushed.Wait()
	}
	// Slow path: a write is in flight. Queue the frame (copying — the
	// caller reclaims its slice when Send returns) into its class queue and
	// wait until the writer has flushed it.
	q, queued, done := &oc.pendingData, &oc.queuedData, &oc.doneData
	if ctl {
		q, queued, done = &oc.pendingCtl, &oc.queuedCtl, &oc.doneCtl
	}
	if *q == nil {
		*q = bufpool.Get(4 + len(frame))[:0]
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	*q = append(*q, hdr[:]...)
	*q = append(*q, frame...)
	*queued += uint64(4 + len(frame))
	myEnd := *queued
	for oc.err == nil && *done < myEnd {
		oc.flushed.Wait()
	}
	err := oc.err
	if *done >= myEnd {
		// Our bytes reached the socket before any failure; later senders'
		// errors are not ours to report.
		err = nil
	}
	failed := oc.err != nil
	oc.mu.Unlock()
	if failed {
		oc.tearDown()
	}
	return err
}

// pendingBytes reports the bytes currently queued behind the writer, both
// classes (for the module's TransportStats).
func (oc *outConn) pendingBytes() uint64 {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return uint64(len(oc.pendingCtl) + len(oc.pendingData))
}

// tearDown closes the socket and unregisters the conn from its module, once.
// It runs on the first observed write error — so the poisoned socket is
// released immediately and a later Dial to the same peer starts fresh — and
// on Close.
func (oc *outConn) tearDown() error {
	oc.teardown.Do(func() {
		oc.closeErr = oc.c.Close()
		if oc.unregister != nil {
			oc.unregister()
		}
	})
	return oc.closeErr
}

// drainLocked writes queued frames until both class queues are empty, then
// retires the writer. Each iteration takes the control batch if there is
// one, the data batch otherwise: control frames queued during a data write
// are on the socket before the next data batch, no matter how deep the data
// backlog runs. Called with oc.mu held by the current writer; the lock is
// dropped around each syscall so senders can keep queueing into the next
// batch.
func (oc *outConn) drainLocked() {
	for oc.err == nil && (len(oc.pendingCtl) > 0 || len(oc.pendingData) > 0) {
		batch, done := oc.pendingCtl, &oc.doneCtl
		if len(batch) > 0 {
			oc.pendingCtl = nil
		} else {
			batch, done = oc.pendingData, &oc.doneData
			oc.pendingData = nil
		}
		oc.mu.Unlock()
		_, werr := oc.c.Write(batch)
		oc.mu.Lock()
		if werr != nil && oc.err == nil {
			oc.err = werr
		} else if werr == nil {
			// done only advances on success: a waiter whose bytes were in a
			// failed batch must see the error, not a false success.
			*done += uint64(len(batch))
		}
		bufpool.Put(batch)
		oc.flushed.Broadcast()
	}
	if oc.err != nil {
		// Abandon both queues: waiters whose bytes never reached the socket
		// see their done counter stop short of their offset and report oc.err.
		if len(oc.pendingCtl) > 0 {
			bufpool.Put(oc.pendingCtl)
			oc.pendingCtl = nil
		}
		if len(oc.pendingData) > 0 {
			bufpool.Put(oc.pendingData)
			oc.pendingData = nil
		}
	}
	oc.writing = false
	oc.flushed.Broadcast()
}

func (oc *outConn) Method() string { return Name }
func (oc *outConn) Close() error   { return oc.tearDown() }
