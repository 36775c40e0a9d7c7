// Package rudp implements a reliable datagram communication module: a
// go-back-N sliding-window protocol over UDP.
//
// The paper's §2 lists "reliable multicast" and RTP-style protocols among
// the specialized methods collaborative applications select, and §6 names
// streaming protocols as methods "currently being investigated" for the
// framework. rudp is that kind of module: it keeps UDP's datagram framing
// and address model but adds ordering, deduplication, and retransmission, so
// an application can pick, per link, between "udp" (fast, lossy) and "rudp"
// (reliable, windowed) with no code changes.
//
// Protocol: every frame travels as one DATA datagram carrying a connection
// id and a sequence number; the receiver delivers in order, drops
// out-of-order datagrams (go-back-N), and returns cumulative ACKs. The
// sender holds unacknowledged frames in a bounded window, blocking when the
// window fills, and retransmits on a fixed timeout.
package rudp

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"nexus/internal/transport"
	"nexus/internal/transport/rawpoll"
)

// Name is the method name used in descriptors and resource strings.
const Name = "rudp"

// MaxPayload bounds a frame to one datagram.
const MaxPayload = 60 << 10

// Datagram types.
const (
	typeData = byte(1)
	typeAck  = byte(2)
)

// headerLen is type(1) + connID(8) + seq(4).
const headerLen = 13

// recvSlots is the Poll batch width: datagrams drained per recvmmsg call.
const recvSlots = 16

// sendSlots is the per-connection batch width: frames per sendmmsg call.
const sendSlots = 16

// maxPollDatagrams bounds one Poll pass (see udp: a flooding peer must not
// pin the polling loop inside one module).
const maxPollDatagrams = 1024

// Errors returned by the rudp module.
var (
	// ErrTooLarge reports a frame exceeding the datagram limit. It wraps
	// transport.ErrTooLarge, the typed oversize error shared by every
	// size-limited module.
	ErrTooLarge = fmt.Errorf("rudp: frame exceeds datagram size: %w", transport.ErrTooLarge)
	// ErrSendTimeout reports a frame that stayed unacknowledged through
	// every retransmission attempt.
	ErrSendTimeout = errors.New("rudp: no acknowledgement from peer")
)

func init() {
	transport.Register(Name, func(p transport.Params) transport.Module { return New(p) })
}

// Module is a reliable-datagram method instance.
type Module struct {
	listen  string
	window  int
	rto     time.Duration
	retries int
	loss    float64
	ackLoss float64
	seed    int64
	rcvbuf  int
	sndbuf  int

	mu      sync.Mutex
	env     transport.Env
	pc      *net.UDPConn
	br      *rawpoll.BatchReader
	fd      int
	rdy     transport.Readiness // non-nil while reactor-attached
	streams map[streamKey]*recvStream
	inited  bool
	closed  bool

	rng *mrand.Rand
}

type streamKey struct {
	addr   string
	connID uint64
}

// recvStream is the receiver-side state of one inbound connection.
type recvStream struct {
	expect uint32 // next in-order sequence number
}

// New returns an uninitialized rudp module. Recognized parameters:
//
//	listen   — listen address (default "127.0.0.1:0")
//	window   — sliding-window size in frames (default 32)
//	rto      — retransmission timeout (default 20ms)
//	retries  — attempts per frame before ErrSendTimeout (default 50)
//	loss     — outbound DATA loss probability, for failure injection
//	ack_loss — outbound ACK loss probability, for failure injection
//	seed     — RNG seed for deterministic loss (default 1)
//	rcvbuf   — requested socket receive buffer in bytes (default 4 MiB;
//	           0 keeps the OS default). Bulk messages arrive as bursts of
//	           near-datagram-size fragments; a large buffer turns what
//	           would be drop-and-retransmit churn into a single pass.
//	sndbuf   — requested socket send buffer in bytes, applied to outbound
//	           connections (default 4 MiB; 0 keeps the OS default). A
//	           sendmmsg window flush wants the same headroom on the way
//	           out that rcvbuf gives the way in.
func New(p transport.Params) *Module {
	if p == nil {
		p = transport.Params{}
	}
	return &Module{
		listen:  p.Str("listen", "127.0.0.1:0"),
		window:  p.Int("window", 32),
		rto:     p.Duration("rto", 20*time.Millisecond),
		retries: p.Int("retries", 50),
		loss:    p.Float("loss", 0),
		ackLoss: p.Float("ack_loss", 0),
		seed:    int64(p.Int("seed", 1)),
		rcvbuf:  p.Int("rcvbuf", 4<<20),
		sndbuf:  p.Int("sndbuf", 4<<20),
		streams: make(map[streamKey]*recvStream),
	}
}

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

// Init binds the datagram socket.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inited {
		return nil, fmt.Errorf("rudp: double Init for context %d", env.Context)
	}
	addr, err := net.ResolveUDPAddr("udp", m.listen)
	if err != nil {
		return nil, fmt.Errorf("rudp: resolve %s: %w", m.listen, err)
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rudp: listen: %w", err)
	}
	if m.rcvbuf > 0 {
		_ = pc.SetReadBuffer(m.rcvbuf) // best effort; kernel caps apply
	}
	br, err := rawpoll.NewBatchReader(pc, recvSlots, 64<<10)
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("rudp: batch reader: %w", err)
	}
	m.env = env
	m.pc = pc
	m.br = br
	m.fd = udpFd(pc)
	m.inited = true
	m.rng = mrand.New(mrand.NewSource(m.seed))
	return &transport.Descriptor{
		Method:  Name,
		Context: env.Context,
		Attrs: map[string]string{
			"addr":                   pc.LocalAddr().String(),
			transport.AttrMaxMessage: strconv.Itoa(MaxPayload),
		},
	}, nil
}

// MaxMessage implements transport.SizeLimiter: one frame per DATA datagram.
func (m *Module) MaxMessage() int { return MaxPayload }

// Applicable reports whether remote advertises an rudp address.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	return remote.Method == Name && remote.Attr("addr") != ""
}

// Dial opens a reliable windowed connection to the remote context.
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
	raddr, err := net.ResolveUDPAddr("udp", remote.Attr("addr"))
	if err != nil {
		return nil, fmt.Errorf("rudp: resolve %s: %w", remote.Attr("addr"), err)
	}
	sock, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("rudp: dial %s: %w", raddr, err)
	}
	if m.sndbuf > 0 {
		_ = sock.SetWriteBuffer(m.sndbuf) // best effort; kernel caps apply
	}
	var idBuf [8]byte
	if _, err := rand.Read(idBuf[:]); err != nil {
		sock.Close()
		return nil, fmt.Errorf("rudp: conn id: %w", err)
	}
	bw, err := rawpoll.NewBatchWriter(sock, sendSlots)
	if err != nil {
		sock.Close()
		return nil, fmt.Errorf("rudp: batch writer: %w", err)
	}
	c := &conn{
		m:      m,
		sock:   sock,
		bw:     bw,
		connID: binary.BigEndian.Uint64(idBuf[:]),
		window: m.window,
		rto:    m.rto,
		tries:  m.retries,
		quit:   make(chan struct{}),
	}
	if m.loss > 0 {
		c.loss = m.loss
		c.rng = mrand.New(mrand.NewSource(m.seed))
	}
	c.cond = sync.NewCond(&c.mu)
	go c.ackReader()
	go c.retransmitter()
	return c, nil
}

// Poll drains the socket in recvmmsg batches: DATA datagrams are delivered
// in order, straight from their receive slots (the sink borrows each frame
// for the call); duplicates and gaps are dropped, and one cumulative ACK per
// stream is flushed at the end of the pass. A pass ends when the socket
// reports empty or after maxPollDatagrams datagrams; one that stops at the
// bound reports progress even if every datagram was a duplicate, a gap or an
// ACK, because input remains queued (transport.Reactive, rule 1).
func (m *Module) Poll() (int, error) {
	m.mu.Lock()
	if !m.inited {
		m.mu.Unlock()
		return 0, transport.ErrNotInitialized
	}
	if m.closed {
		m.mu.Unlock()
		return 0, transport.ErrClosed
	}
	br := m.br
	m.mu.Unlock()

	pendingAcks := make(map[streamKey]ackDue)
	delivered, seen := 0, 0
	for {
		n, err := br.Recv()
		for i := 0; i < n; i++ {
			pkt := br.Frame(i)
			from := br.Addr(i)
			if len(pkt) < headerLen || pkt[0] != typeData || from == nil {
				continue // not a data frame for the receiver side
			}
			connID := binary.BigEndian.Uint64(pkt[1:])
			seq := binary.BigEndian.Uint32(pkt[9:])
			key := streamKey{addr: from.String(), connID: connID}
			m.mu.Lock()
			st := m.streams[key]
			if st == nil {
				st = &recvStream{}
				m.streams[key] = st
			}
			inOrder := seq == st.expect
			if inOrder {
				st.expect++
			}
			ackUpTo := st.expect
			m.mu.Unlock()

			if inOrder {
				m.env.Sink.Deliver(pkt[headerLen:])
				delivered++
			}
			// Delayed cumulative ACK: one per stream per poll pass,
			// covering everything below ackUpTo.
			pendingAcks[key] = ackDue{to: from, connID: connID, ackUpTo: ackUpTo}
		}
		seen += n
		if err != nil {
			m.flushAcks(pendingAcks)
			if errors.Is(err, rawpoll.ErrWouldBlock) {
				return delivered, nil
			}
			if m.isClosed() {
				return delivered, transport.ErrClosed
			}
			return delivered, err
		}
		if seen >= maxPollDatagrams {
			break // bounded pass; the rest waits for the next
		}
	}
	m.flushAcks(pendingAcks)
	if delivered == 0 {
		delivered = 1 // nothing in order, but input remains queued: not idle
	}
	return delivered, nil
}

// udpFd returns the fd behind a *net.UDPConn (or -1).
func udpFd(pc *net.UDPConn) int {
	fd := -1
	rc, err := pc.SyscallConn()
	if err != nil {
		return -1
	}
	_ = rc.Control(func(f uintptr) { fd = int(f) })
	return fd
}

// AttachReactor implements transport.Reactive: the listen socket joins the
// reactor's watch set. Outbound connections are unaffected: their ACKs arrive
// on their own connected sockets, consumed by a blocked reader goroutine.
func (m *Module) AttachReactor(r transport.Readiness) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.inited {
		return transport.ErrNotInitialized
	}
	if m.closed {
		return transport.ErrClosed
	}
	if m.fd < 0 {
		return transport.ErrNotReactive
	}
	if err := r.Add(m.fd); err != nil {
		return err
	}
	m.rdy = r
	return nil
}

// DetachReactor implements transport.Reactive.
func (m *Module) DetachReactor() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rdy != nil {
		m.rdy.Remove(m.fd)
		m.rdy = nil
	}
}

// ackDue is a delayed cumulative acknowledgement awaiting flush.
type ackDue struct {
	to      *net.UDPAddr
	connID  uint64
	ackUpTo uint32
}

func (m *Module) flushAcks(acks map[streamKey]ackDue) {
	for _, a := range acks {
		m.sendAck(a.to, a.connID, a.ackUpTo)
	}
}

func (m *Module) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

func (m *Module) sendAck(to *net.UDPAddr, connID uint64, ackUpTo uint32) {
	m.mu.Lock()
	drop := m.ackLoss > 0 && m.rng.Float64() < m.ackLoss
	m.mu.Unlock()
	if drop {
		return
	}
	var pkt [headerLen]byte
	pkt[0] = typeAck
	binary.BigEndian.PutUint64(pkt[1:], connID)
	binary.BigEndian.PutUint32(pkt[9:], ackUpTo)
	_, _ = m.pc.WriteToUDP(pkt[:], to)
}

// PollCostHint implements transport.CostHinter.
func (m *Module) PollCostHint() time.Duration { return 60 * time.Microsecond }

// Close releases the socket. Open connections fail on their next send.
func (m *Module) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.rdy != nil {
		m.rdy.Remove(m.fd) // before close: the OS may reuse the fd number
		m.rdy = nil
	}
	if m.pc != nil {
		return m.pc.Close()
	}
	return nil
}

// conn is the sender side of one reliable stream.
type conn struct {
	m      *Module
	sock   *net.UDPConn
	bw     *rawpoll.BatchWriter
	connID uint64
	window int
	rto    time.Duration
	tries  int
	loss   float64
	rng    *mrand.Rand

	mu      sync.Mutex
	cond    *sync.Cond
	nextSeq uint32
	base    uint32            // lowest unacknowledged sequence number
	pending map[uint32][]byte // unacked DATA packets (with header)
	dead    error
	quit    chan struct{}
	closed  bool
}

// Send transmits one frame reliably: it blocks while the window is full and
// returns only after the frame has been handed to the wire (acknowledgement
// is asynchronous; a frame that exhausts its retries poisons the connection
// and the error surfaces on the next Send).
func (c *conn) Send(frame []byte) error {
	if len(frame) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(frame))
	}
	pkt := make([]byte, headerLen+len(frame))
	pkt[0] = typeData
	binary.BigEndian.PutUint64(pkt[1:], c.connID)
	copy(pkt[headerLen:], frame)

	c.mu.Lock()
	for c.dead == nil && !c.closed && c.nextSeq-c.base >= uint32(c.window) {
		c.cond.Wait()
	}
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		return err
	}
	if c.closed {
		c.mu.Unlock()
		return transport.ErrClosed
	}
	seq := c.nextSeq
	c.nextSeq++
	binary.BigEndian.PutUint32(pkt[9:], seq)
	if c.pending == nil {
		c.pending = make(map[uint32][]byte)
	}
	c.pending[seq] = pkt
	drop := c.rng != nil && c.rng.Float64() < c.loss
	c.mu.Unlock()

	if !drop {
		if _, err := c.sock.Write(pkt); err != nil {
			return fmt.Errorf("rudp: send: %w", err)
		}
	}
	return nil
}

// SendBatch implements transport.BatchSender: frames are sequenced into the
// window in chunks of whatever space is available (blocking, like Send, when
// the window is full) and each chunk is flushed with one sendmmsg(2) instead
// of one sendto(2) per frame. Loss injection still decides per frame —
// dropped frames stay in the retransmission window, exactly as a frame lost
// on the wire would.
func (c *conn) SendBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if len(f) > MaxPayload {
			return i, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(f))
		}
	}
	sent := 0
	for sent < len(frames) {
		c.mu.Lock()
		for c.dead == nil && !c.closed && c.nextSeq-c.base >= uint32(c.window) {
			c.cond.Wait()
		}
		if c.dead != nil {
			err := c.dead
			c.mu.Unlock()
			return sent, err
		}
		if c.closed {
			c.mu.Unlock()
			return sent, transport.ErrClosed
		}
		avail := c.window - int(c.nextSeq-c.base)
		k := len(frames) - sent
		if k > avail {
			k = avail
		}
		if c.pending == nil {
			c.pending = make(map[uint32][]byte)
		}
		wire := make([][]byte, 0, k)
		for i := 0; i < k; i++ {
			f := frames[sent+i]
			pkt := make([]byte, headerLen+len(f))
			pkt[0] = typeData
			binary.BigEndian.PutUint64(pkt[1:], c.connID)
			binary.BigEndian.PutUint32(pkt[9:], c.nextSeq)
			copy(pkt[headerLen:], f)
			c.pending[c.nextSeq] = pkt
			c.nextSeq++
			if c.rng == nil || c.rng.Float64() >= c.loss {
				wire = append(wire, pkt)
			}
		}
		c.mu.Unlock()
		if len(wire) > 0 {
			if _, err := c.bw.Send(wire); err != nil {
				// The chunk is already sequenced into the window; a hard
				// socket error surfaces now rather than via retransmission.
				return sent, fmt.Errorf("rudp: batch send: %w", err)
			}
		}
		sent += k
	}
	return len(frames), nil
}

// ackReader consumes cumulative ACKs on the connected socket.
func (c *conn) ackReader() {
	buf := make([]byte, 64)
	for {
		n, err := c.sock.Read(buf)
		if err != nil {
			return // socket closed
		}
		if n < headerLen || buf[0] != typeAck {
			continue
		}
		if binary.BigEndian.Uint64(buf[1:]) != c.connID {
			continue
		}
		ackUpTo := binary.BigEndian.Uint32(buf[9:])
		c.mu.Lock()
		for seq := c.base; seq < ackUpTo; seq++ {
			delete(c.pending, seq)
		}
		if ackUpTo > c.base {
			c.base = ackUpTo
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}
}

// retransmitter resends the window base (go-back-N: everything from the
// first gap) every RTO until acknowledged or out of retries.
func (c *conn) retransmitter() {
	ticker := time.NewTicker(c.rto)
	defer ticker.Stop()
	attempts := 0
	lastBase := uint32(0)
	for {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if len(c.pending) == 0 {
			attempts = 0
			c.mu.Unlock()
			continue
		}
		if c.base != lastBase {
			lastBase = c.base
			attempts = 0
		}
		attempts++
		if attempts > c.tries {
			c.dead = fmt.Errorf("%w (seq %d after %d attempts)", ErrSendTimeout, c.base, attempts-1)
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		// Resend every unacked packet from the base onward, in order.
		var resend [][]byte
		for seq := c.base; seq < c.nextSeq; seq++ {
			if pkt, ok := c.pending[seq]; ok {
				resend = append(resend, pkt)
			}
		}
		c.mu.Unlock()
		for _, pkt := range resend {
			if _, err := c.sock.Write(pkt); err != nil {
				c.mu.Lock()
				if c.dead == nil && !c.closed {
					c.dead = fmt.Errorf("rudp: retransmit: %w", err)
					c.cond.Broadcast()
				}
				c.mu.Unlock()
				return
			}
		}
	}
}

func (c *conn) Method() string { return Name }

// Close stops the connection's goroutines and releases its socket. Frames
// still unacknowledged are abandoned.
func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.quit)
	return c.sock.Close()
}
