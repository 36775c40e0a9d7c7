package udp

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"nexus/internal/transport"
	"nexus/internal/transport/rawpoll"
)

// The reliable method, "rudp".
//
// The paper's §2 lists "reliable multicast" and RTP-style protocols among
// the specialized methods collaborative applications select, and §6 names
// streaming protocols as methods "currently being investigated" for the
// framework. rudp is that kind of module, on udp's socket.
//
// Protocol: every frame travels as one DATA datagram carrying a connection
// id and a sequence number; the receiver delivers in order, drops
// out-of-order datagrams (go-back-N), and returns cumulative ACKs. The
// sender holds unacknowledged frames in a bounded window, blocking when the
// window fills, and retransmits on a fixed timeout.

// ReliableName is the reliable method's name in descriptors and resource
// strings.
const ReliableName = "rudp"

// Datagram types.
const (
	typeData = byte(1)
	typeAck  = byte(2)
)

// headerLen is type(1) + connID(8) + seq(4).
const headerLen = 13

// ErrSendTimeout reports a frame that stayed unacknowledged through every
// retransmission attempt.
var ErrSendTimeout = errors.New("rudp: no acknowledgement from peer")

// Reliable is a reliable-datagram method instance.
type Reliable struct {
	socket
	window  int
	rto     time.Duration
	retries int
	ackLoss float64

	// Guarded by socket.mu.
	streams map[streamKey]*recvStream
	rng     *mrand.Rand // nil unless ACK loss injection is on

	ackPkt [headerLen]byte // ACK scratch: Poll is never concurrent with itself
}

type streamKey struct {
	addr   netip.AddrPort
	connID uint64
}

// recvStream is the receiver-side state of one inbound connection.
type recvStream struct {
	expect uint32 // next in-order sequence number
}

// Dial opens a reliable windowed connection to the remote context.
func (m *Reliable) Dial(remote transport.Descriptor) (transport.Conn, error) {
	var idBuf [8]byte
	if _, err := rand.Read(idBuf[:]); err != nil {
		return nil, fmt.Errorf("rudp: conn id: %w", err)
	}
	sock, bw, err := m.dial(remote)
	if err != nil {
		return nil, err
	}
	c := &reliableConn{
		sock:   sock,
		bw:     bw,
		connID: binary.BigEndian.Uint64(idBuf[:]),
		window: m.window,
		rto:    m.rto,
		tries:  m.retries,
		loss:   m.loss,
		rng:    m.lossRNG(),
		quit:   make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.ackReader()
	go c.retransmitter()
	return c, nil
}

// Poll drains the socket in recvmmsg batches: DATA datagrams are delivered
// in order, straight from their receive slots (the sink borrows each frame
// for the call); duplicates and gaps are dropped, and one cumulative ACK per
// stream is flushed at the end of the pass. A pass that stops at
// maxPollDatagrams reports progress even if every datagram was a duplicate,
// a gap or an ACK, because input remains queued (transport.Reactive,
// rule 1).
func (m *Reliable) Poll() (int, error) {
	acks := make(map[streamKey]uint32) // delayed cumulative ACK per stream
	delivered := 0
	seen, err := m.drain(func(pkt []byte, from netip.AddrPort) {
		if m.receive(pkt, from, acks) {
			delivered++
		}
	})
	for key, upTo := range acks {
		m.sendAck(key, upTo)
	}
	if err == nil && seen >= maxPollDatagrams && delivered == 0 {
		delivered = 1 // nothing in order, but input remains queued: not idle
	}
	return delivered, err
}

// receive handles one datagram from the listen socket. A DATA datagram whose
// sequence number is its stream's next expected one is delivered to the sink
// (which borrows it) and receive reports true; any DATA datagram records the
// stream's cumulative ACK in acks. Everything else is dropped.
func (m *Reliable) receive(pkt []byte, from netip.AddrPort, acks map[streamKey]uint32) bool {
	if len(pkt) < headerLen || pkt[0] != typeData || !from.IsValid() {
		return false // not a data frame for the receiver side
	}
	key := streamKey{addr: from, connID: binary.BigEndian.Uint64(pkt[1:])}
	seq := binary.BigEndian.Uint32(pkt[9:])
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
	acks[key] = st.expect
	m.mu.Unlock()
	if inOrder {
		m.env.Sink.Deliver(pkt[headerLen:])
	}
	return inOrder
}

// sendAck acknowledges every sequence number below upTo on one stream.
func (m *Reliable) sendAck(key streamKey, upTo uint32) {
	m.mu.Lock()
	drop := m.ackLoss > 0 && m.rng.Float64() < m.ackLoss
	m.mu.Unlock()
	if drop {
		return
	}
	pkt := m.ackPkt[:]
	pkt[0] = typeAck
	binary.BigEndian.PutUint64(pkt[1:], key.connID)
	binary.BigEndian.PutUint32(pkt[9:], upTo)
	// A lost ACK is recovered by the sender's RTO resend, exactly like an
	// ACK dropped by ack_loss.
	_, _ = m.pc.WriteToUDPAddrPort(pkt, key.addr)
}

// PollCostHint implements transport.CostHinter.
func (m *Reliable) PollCostHint() time.Duration { return 60 * time.Microsecond }

// reliableConn is the sender side of one reliable stream.
type reliableConn struct {
	sock   *net.UDPConn
	bw     *rawpoll.BatchWriter
	connID uint64
	window int
	rto    time.Duration
	tries  int
	loss   float64
	rng    *mrand.Rand // nil unless loss injection is on

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
func (c *reliableConn) Send(frame []byte) error {
	if len(frame) > MaxDatagram {
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
func (c *reliableConn) SendBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if len(f) > MaxDatagram {
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
func (c *reliableConn) ackReader() {
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
func (c *reliableConn) retransmitter() {
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

func (c *reliableConn) Method() string { return ReliableName }

// Close stops the connection's goroutines and releases its socket. Frames
// still unacknowledged are abandoned.
func (c *reliableConn) Close() error {
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
