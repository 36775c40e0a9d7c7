// Package udp implements the unreliable datagram communication module.
//
// The paper lists UDP among the specialized protocols that collaborative and
// streaming applications select for data that tolerates loss (shared-state
// updates, video frames) in exchange for lower latency and no head-of-line
// blocking. Each frame travels as one datagram; frames larger than a
// datagram are rejected rather than fragmented, and delivery is not
// guaranteed. An optional loss parameter injects deterministic artificial
// drop for failure-injection tests.
//
// Detection and transmission are syscall-batched: Poll drains a burst of
// queued datagrams per recvmmsg(2) into persistent receive slots (no copy,
// no allocation on the steady-state receive path), connections flush frame
// trains with sendmmsg(2) via the BatchSender capability — collapsing an
// equal-sized train into a single UDP-GSO sendmsg(2) where the kernel
// supports it — and the module implements transport.Reactive, so a
// readiness reactor can take its socket out of the polling rotation
// entirely until the kernel reports data.
package udp

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"nexus/internal/transport"
	"nexus/internal/transport/rawpoll"
)

// Name is the method name used in descriptors and resource strings.
const Name = "udp"

// MaxDatagram is the largest frame the module will send (a safe UDP payload
// bound below the 64 KiB datagram limit).
const MaxDatagram = 60 << 10

// ErrTooLarge reports a frame that does not fit in a single datagram. It
// wraps transport.ErrTooLarge, the typed oversize error shared by every
// size-limited module.
var ErrTooLarge = fmt.Errorf("udp: frame exceeds datagram size: %w", transport.ErrTooLarge)

func init() {
	transport.Register(Name, func(p transport.Params) transport.Module { return New(p) })
}

// DefaultRecvBuffer is the socket receive buffer requested at Init. The
// fragmentation layer above delivers a bulk message as a burst of
// near-datagram-size frames; the OS default buffer (a couple hundred KiB on
// Linux) holds only a handful of those, so a poller that is even briefly
// behind loses most of the burst. Sized to absorb one maximally fragmented
// 16 MiB-default message window in practice: kernels cap the request at
// net.core.rmem_max, and the setting is best-effort.
const DefaultRecvBuffer = 4 << 20

// DefaultSendBuffer is the socket send buffer requested for outbound
// connections. sendmmsg hands the kernel a whole fragment train in one call;
// the ~208 KiB Linux default absorbs only three 60 KiB datagrams before the
// sender parks on writability mid-batch, so the batch path wants the same
// headroom the receive path already requests.
const DefaultSendBuffer = 4 << 20

// recvSlots is the Poll batch width: datagrams drained per recvmmsg call.
const recvSlots = 16

// sendSlots is the per-connection batch width: frames per sendmmsg call.
const sendSlots = 16

// maxPollDatagrams bounds one Poll pass. A pass drains full batches until the
// socket is empty or the bound is reached, so a flooding peer cannot pin the
// polling loop inside one module's Poll while other methods starve.
const maxPollDatagrams = 1024

// Module is a UDP communication method instance.
type Module struct {
	listen string
	loss   float64
	seed   int64
	rcvbuf int
	sndbuf int

	mu     sync.Mutex
	env    transport.Env
	pc     *net.UDPConn
	br     *rawpoll.BatchReader
	fd     int
	rd     transport.Readiness // non-nil while reactor-attached
	inited bool
	closed bool
}

// New returns an uninitialized UDP module. Recognized parameters:
//
//	listen — listen address (default "127.0.0.1:0")
//	loss   — probability in [0,1] of silently dropping an outbound frame
//	seed   — RNG seed for deterministic loss injection (default 1)
//	rcvbuf — requested socket receive buffer in bytes (default 4 MiB;
//	         0 keeps the OS default)
//	sndbuf — requested socket send buffer in bytes, applied to outbound
//	         connections (default 4 MiB; 0 keeps the OS default)
func New(p transport.Params) *Module {
	if p == nil {
		p = transport.Params{}
	}
	return &Module{
		listen: p.Str("listen", "127.0.0.1:0"),
		loss:   p.Float("loss", 0),
		seed:   int64(p.Int("seed", 1)),
		rcvbuf: p.Int("rcvbuf", DefaultRecvBuffer),
		sndbuf: p.Int("sndbuf", DefaultSendBuffer),
	}
}

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

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

// Init binds the datagram socket.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inited {
		return nil, fmt.Errorf("udp: double Init for context %d", env.Context)
	}
	addr, err := net.ResolveUDPAddr("udp", m.listen)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve %s: %w", m.listen, err)
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen: %w", err)
	}
	if m.rcvbuf > 0 {
		_ = pc.SetReadBuffer(m.rcvbuf) // best effort; kernel caps apply
	}
	br, err := rawpoll.NewBatchReader(pc, recvSlots, 64<<10)
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("udp: batch reader: %w", err)
	}
	m.env = env
	m.pc = pc
	m.br = br
	m.fd = udpFd(pc)
	m.inited = true
	return &transport.Descriptor{
		Method:  Name,
		Context: env.Context,
		Attrs: map[string]string{
			"addr":                   pc.LocalAddr().String(),
			transport.AttrMaxMessage: strconv.Itoa(MaxDatagram),
		},
	}, nil
}

// MaxMessage implements transport.SizeLimiter: one frame per datagram.
func (m *Module) MaxMessage() int { return MaxDatagram }

// Applicable reports whether remote advertises a UDP address.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	return remote.Method == Name && remote.Attr("addr") != ""
}

// Dial opens an unreliable connection to the remote context.
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
	addr, err := net.ResolveUDPAddr("udp", remote.Attr("addr"))
	if err != nil {
		return nil, fmt.Errorf("udp: resolve %s: %w", remote.Attr("addr"), err)
	}
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("udp: dial %s: %w", addr, err)
	}
	if m.sndbuf > 0 {
		_ = c.SetWriteBuffer(m.sndbuf) // best effort; kernel caps apply
	}
	bw, err := rawpoll.NewBatchWriter(c, sendSlots)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("udp: batch writer: %w", err)
	}
	oc := &conn{c: c, bw: bw, gso: rawpoll.ProbeGSO(c)}
	if m.loss > 0 {
		oc.loss = m.loss
		oc.rng = rand.New(rand.NewSource(m.seed))
	}
	return oc, nil
}

// AttachReactor implements transport.Reactive: the listen socket joins the
// reactor's watch set.
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
	m.rd = r
	return nil
}

// DetachReactor implements transport.Reactive.
func (m *Module) DetachReactor() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rd != nil {
		m.rd.Remove(m.fd)
		m.rd = nil
	}
}

// Poll drains queued datagrams in recvmmsg batches, delivering each frame
// straight from its receive slot (the sink borrows it for the call), until
// the socket reports empty or maxPollDatagrams have been delivered.
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
	br, sink := m.br, m.env.Sink
	m.mu.Unlock()

	delivered := 0
	for {
		n, err := br.Recv()
		for i := 0; i < n; i++ {
			sink.Deliver(br.Frame(i))
		}
		delivered += n
		if err != nil {
			if errors.Is(err, rawpoll.ErrWouldBlock) {
				return delivered, nil
			}
			if m.isClosed() {
				return delivered, transport.ErrClosed
			}
			return delivered, err
		}
		if delivered >= maxPollDatagrams {
			return delivered, nil // bounded pass; the rest waits for the next
		}
	}
}

func (m *Module) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// PollCostHint implements transport.CostHinter.
func (m *Module) PollCostHint() time.Duration { return 50 * time.Microsecond }

// Close releases the socket.
func (m *Module) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.rd != nil {
		m.rd.Remove(m.fd) // before close: the OS may reuse the fd number
		m.rd = nil
	}
	if m.pc != nil {
		return m.pc.Close()
	}
	return nil
}

type conn struct {
	mu   sync.Mutex
	c    *net.UDPConn
	bw   *rawpoll.BatchWriter
	gso  bool
	gbuf []byte // GSO coalescing buffer, allocated on first use
	kept [][]byte
	loss float64
	rng  *rand.Rand
}

func (c *conn) Send(frame []byte) error {
	if len(frame) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(frame))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng != nil && c.rng.Float64() < c.loss {
		return nil // dropped: unreliable delivery is part of the contract
	}
	_, err := c.c.Write(frame)
	return err
}

// maxGSOBytes caps one GSO super-datagram: the kernel bounds the whole
// buffer to an IP datagram's 64 KiB payload space.
const maxGSOBytes = 63 << 10

// maxGSOSegments is the kernel's UDP_MAX_SEGMENTS.
const maxGSOSegments = 64

// SendBatch implements transport.BatchSender: the train goes out in one
// sendmmsg(2) per sendSlots frames — or, when every frame but the last has
// the same size and the kernel supports UDP generic segmentation offload, in
// a single sendmsg(2) that the kernel splits on the way out.
func (c *conn) SendBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if len(f) > MaxDatagram {
			return i, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(f))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng != nil {
		// Loss injection decides per frame; survivors still go out batched.
		c.kept = c.kept[:0]
		for _, f := range frames {
			if c.rng.Float64() >= c.loss {
				c.kept = append(c.kept, f)
			}
		}
		if _, err := c.bw.Send(c.kept); err != nil {
			return 0, fmt.Errorf("udp: batch send: %w", err)
		}
		return len(frames), nil
	}
	if seg := gsoSegment(frames); c.gso && seg > 0 {
		if c.gbuf == nil {
			c.gbuf = make([]byte, 0, maxGSOBytes)
		}
		buf := c.gbuf[:0]
		for _, f := range frames {
			buf = append(buf, f...)
		}
		if err := c.bw.SendGSO(buf, seg); err != nil {
			// EIO/EINVAL here can mean a GSO-incapable path (e.g. a device
			// change after probe); disable and fall through to sendmmsg.
			c.gso = false
		} else {
			return len(frames), nil
		}
	}
	n, err := c.bw.Send(frames)
	if err != nil {
		return n, fmt.Errorf("udp: batch send: %w", err)
	}
	return n, nil
}

// gsoSegment reports the segment size to use for a GSO send of frames, or 0
// when the train does not qualify (fewer than two frames, unequal sizes
// before the last, last longer than the rest, or total beyond the GSO cap).
func gsoSegment(frames [][]byte) int {
	if len(frames) < 2 || len(frames) > maxGSOSegments {
		return 0
	}
	seg := len(frames[0])
	if seg == 0 {
		return 0
	}
	total := 0
	for i, f := range frames {
		if i < len(frames)-1 && len(f) != seg {
			return 0
		}
		if i == len(frames)-1 && len(f) > seg {
			return 0
		}
		total += len(f)
	}
	if total > maxGSOBytes {
		return 0
	}
	return seg
}

func (c *conn) Method() string { return Name }
func (c *conn) Close() error   { return c.c.Close() }
