// Package udp implements the two datagram communication modules: "udp",
// unreliable datagrams, and "rudp", a reliable go-back-N sliding-window
// protocol over the same socket code.
//
// The paper lists UDP among the specialized protocols that collaborative and
// streaming applications select for data that tolerates loss (shared-state
// updates, video frames) in exchange for lower latency and no head-of-line
// blocking. Each frame travels as one datagram; frames larger than a
// datagram are rejected rather than fragmented, and udp does not guarantee
// delivery. rudp (rudp.go) keeps that framing and address model and adds
// ordering, deduplication and retransmission, so an application can pick,
// per link, between fast-and-lossy and reliable-and-windowed with no code
// changes. An optional loss parameter injects deterministic artificial drop
// for failure-injection tests.
//
// Both modules embed one socket type: the bound listen socket, its
// lifecycle, reactor registration and the batched receive loop. Detection
// and transmission are syscall-batched: Poll drains a burst of queued
// datagrams per recvmmsg(2) into persistent receive slots (no copy, no
// allocation on the steady-state receive path), connections flush frame
// trains with sendmmsg(2) via the BatchSender capability — udp collapses an
// equal-sized train into a single UDP-GSO sendmsg(2) where the kernel
// supports it — and both modules implement transport.Reactive, so a
// readiness reactor can take their sockets out of the polling rotation
// entirely until the kernel reports data.
package udp

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"nexus/internal/transport"
	"nexus/internal/transport/rawpoll"
)

// Name is the unreliable method's name in descriptors and resource strings.
const Name = "udp"

// MaxDatagram is the largest frame either module will send (a safe UDP
// payload bound below the 64 KiB datagram limit).
const MaxDatagram = 60 << 10

// ErrTooLarge reports a frame that does not fit in a single datagram. It
// wraps transport.ErrTooLarge, the typed oversize error shared by every
// size-limited module.
var ErrTooLarge = fmt.Errorf("udp: frame exceeds datagram size: %w", transport.ErrTooLarge)

func init() {
	shared := []transport.Param{
		{Key: "listen", Default: "127.0.0.1:0", Doc: "listen address"},
		{Key: "loss", Default: 0.0, Min: 0, Max: 1, Doc: "probability of silently dropping an outbound frame (rudp: DATA datagram)"},
		{Key: "seed", Default: 1, Doc: "RNG seed for deterministic loss injection"},
		{Key: "rcvbuf", Default: DefaultRecvBuffer, Min: 0, Doc: "requested socket receive buffer in bytes (0 = OS default)"},
		{Key: "sndbuf", Default: DefaultSendBuffer, Min: 0, Doc: "requested send buffer in bytes of outbound connections (0 = OS default)"},
	}
	transport.Register(Name, shared, func(v transport.Values) (transport.Module, error) {
		return &Module{socket: newSocket(Name, v)}, nil
	})
	transport.Register(ReliableName, append(shared,
		transport.Param{Key: "window", Default: 32, Min: 1, Doc: "sliding-window size in frames"},
		transport.Param{Key: "rto", Default: 20 * time.Millisecond, Min: 0, Doc: "retransmission timeout"},
		transport.Param{Key: "retries", Default: 50, Min: 1, Doc: "attempts per frame before ErrSendTimeout"},
		transport.Param{Key: "ack_loss", Default: 0.0, Min: 0, Max: 1, Doc: "probability of dropping an outbound ACK"},
	), func(v transport.Values) (transport.Module, error) {
		m := &Reliable{socket: newSocket(ReliableName, v), window: v.Int("window"), rto: v.Duration("rto"),
			retries: v.Int("retries"), ackLoss: v.Float("ack_loss"), streams: make(map[streamKey]*recvStream)}
		if m.ackLoss > 0 {
			m.rng = rand.New(rand.NewSource(m.seed))
		}
		return m, nil
	})
}

// DefaultRecvBuffer is the socket receive buffer requested at Init. The
// fragmentation layer above delivers a bulk message as a burst of
// near-datagram-size frames; the OS default buffer (a couple hundred KiB on
// Linux) holds only a handful of those, so a poller that is even briefly
// behind loses most of the burst (or, under rudp, churns through
// drop-and-retransmit). Sized to absorb one maximally fragmented 16
// MiB-default message window in practice: kernels cap the request at
// net.core.rmem_max, and the setting is best-effort.
const DefaultRecvBuffer = 4 << 20

// DefaultSendBuffer is the socket send buffer requested for outbound
// connections. sendmmsg hands the kernel a whole fragment train in one call;
// the ~208 KiB Linux default absorbs only three 60 KiB datagrams before the
// sender parks on writability mid-batch, so the batch path wants the same
// headroom the receive path already requests.
const DefaultSendBuffer = 4 << 20

// recvSlots is the Poll batch capacity: the most datagrams one recvmmsg call
// drains, reached once bursts have grown the reader's live slots to it.
const recvSlots = 16

// sendSlots is the per-connection batch width: frames per sendmmsg call.
const sendSlots = 16

// maxPollDatagrams bounds one Poll pass. A pass drains full batches until the
// socket is empty or the bound is reached, so a flooding peer cannot pin the
// polling loop inside one module's Poll while other methods starve.
const maxPollDatagrams = 1024

// socket is what both datagram modules share: the parameters they read
// alike, the bound listen socket with its batch reader, the reactor
// registration and the inited/closed lifecycle. The modules embed it and so
// get Name, Init, Applicable, MaxMessage, AttachReactor, DetachReactor and
// Close from it.
type socket struct {
	name   string
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

// newSocket reads the parameters both modules declare.
func newSocket(name string, v transport.Values) socket {
	return socket{
		name:   name,
		listen: v.Str("listen"),
		loss:   v.Float("loss"),
		seed:   int64(v.Int("seed")),
		rcvbuf: v.Int("rcvbuf"),
		sndbuf: v.Int("sndbuf"),
	}
}

// Name implements transport.Module.
func (s *socket) Name() string { return s.name }

// socketFd returns the fd behind a *net.UDPConn, or -1 when the runtime
// does not expose one; AttachReactor then reports ErrNotReactive and the
// module stays on the polling path.
func socketFd(pc *net.UDPConn) int {
	fd := -1
	rc, err := pc.SyscallConn()
	if err != nil {
		return -1
	}
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return -1
	}
	return fd
}

// Init binds the datagram socket.
func (s *socket) Init(env transport.Env) (*transport.Descriptor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inited {
		return nil, fmt.Errorf("%s: double Init for context %d", s.name, env.Context)
	}
	addr, err := net.ResolveUDPAddr("udp", s.listen)
	if err != nil {
		return nil, fmt.Errorf("%s: resolve %s: %w", s.name, s.listen, err)
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen: %w", s.name, err)
	}
	if s.rcvbuf > 0 {
		// Best effort: the kernel caps the request at net.core.rmem_max, and
		// a smaller buffer costs drops under bursts, not correctness.
		_ = pc.SetReadBuffer(s.rcvbuf)
	}
	br, err := rawpoll.NewBatchReader(pc, recvSlots, 64<<10)
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("%s: batch reader: %w", s.name, err)
	}
	s.env = env
	s.pc = pc
	s.br = br
	s.fd = socketFd(pc)
	s.inited = true
	return &transport.Descriptor{
		Method:  s.name,
		Context: env.Context,
		Attrs: map[string]string{
			"addr":                   pc.LocalAddr().String(),
			transport.AttrMaxMessage: strconv.Itoa(MaxDatagram),
		},
	}, nil
}

// MaxMessage implements transport.SizeLimiter: one frame per datagram.
func (s *socket) MaxMessage() int { return MaxDatagram }

// Applicable reports whether remote is reachable (a datagram descriptor has
// no reach attribute, so even before Init) and advertises an address.
func (s *socket) Applicable(remote transport.Descriptor) bool {
	return transport.Reaches(transport.Descriptor{Method: s.name}, remote) && remote.Attr("addr") != ""
}

// dial opens a connected socket to remote with its send buffer sized and a
// batch writer bound to it.
func (s *socket) dial(remote transport.Descriptor) (*net.UDPConn, *rawpoll.BatchWriter, error) {
	s.mu.Lock()
	inited, closed := s.inited, s.closed
	s.mu.Unlock()
	if !inited {
		return nil, nil, transport.ErrNotInitialized
	}
	if closed {
		return nil, nil, transport.ErrClosed
	}
	if !s.Applicable(remote) {
		return nil, nil, transport.ErrNotApplicable
	}
	addr, err := net.ResolveUDPAddr("udp", remote.Attr("addr"))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: resolve %s: %w", s.name, remote.Attr("addr"), err)
	}
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: dial %s: %w", s.name, addr, err)
	}
	if s.sndbuf > 0 {
		// Best effort, as for rcvbuf: a capped buffer parks the sender on
		// writability sooner but loses nothing.
		_ = c.SetWriteBuffer(s.sndbuf)
	}
	bw, err := rawpoll.NewBatchWriter(c, sendSlots)
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("%s: batch writer: %w", s.name, err)
	}
	return c, bw, nil
}

// lossRNG returns the per-connection loss-injection generator, or nil when
// loss injection is off.
func (s *socket) lossRNG() *rand.Rand {
	if s.loss <= 0 {
		return nil
	}
	return rand.New(rand.NewSource(s.seed))
}

// AttachReactor implements transport.Reactive: the listen socket joins the
// reactor's watch set. Outbound connections are unaffected.
func (s *socket) AttachReactor(r transport.Readiness) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inited {
		return transport.ErrNotInitialized
	}
	if s.closed {
		return transport.ErrClosed
	}
	if s.fd < 0 {
		return transport.ErrNotReactive
	}
	if err := r.Add(s.fd); err != nil {
		return err
	}
	s.rd = r
	return nil
}

// DetachReactor implements transport.Reactive.
func (s *socket) DetachReactor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rd != nil {
		s.rd.Remove(s.fd)
		s.rd = nil
	}
}

// drain receives queued datagrams in recvmmsg batches and hands each to
// each, which borrows pkt for the call, until the socket reports empty or
// maxPollDatagrams have been seen. It returns how many it saw; a nil error
// with seen >= maxPollDatagrams means the pass stopped at the bound with
// input possibly still queued.
func (s *socket) drain(each func(pkt []byte, from netip.AddrPort)) (seen int, err error) {
	s.mu.Lock()
	if !s.inited {
		s.mu.Unlock()
		return 0, transport.ErrNotInitialized
	}
	if s.closed {
		s.mu.Unlock()
		return 0, transport.ErrClosed
	}
	br := s.br
	s.mu.Unlock()

	for {
		n, err := br.Recv()
		for i := 0; i < n; i++ {
			each(br.Frame(i), br.Addr(i))
		}
		seen += n
		if err != nil {
			if errors.Is(err, rawpoll.ErrWouldBlock) {
				return seen, nil
			}
			if s.isClosed() {
				return seen, transport.ErrClosed
			}
			return seen, err
		}
		if seen >= maxPollDatagrams {
			return seen, nil // bounded pass; the rest waits for the next
		}
	}
}

func (s *socket) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close releases the socket. Open connections fail on their next send.
func (s *socket) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.rd != nil {
		s.rd.Remove(s.fd) // before close: the OS may reuse the fd number
		s.rd = nil
	}
	if s.pc != nil {
		return s.pc.Close()
	}
	return nil
}

// Module is a UDP communication method instance.
type Module struct {
	socket
}

// Dial opens an unreliable connection to the remote context.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	c, bw, err := m.dial(remote)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, bw: bw, gso: rawpoll.ProbeGSO(c), loss: m.loss, rng: m.lossRNG()}, nil
}

// Poll drains queued datagrams, delivering each frame straight from its
// receive slot (the sink borrows it for the call).
func (m *Module) Poll() (int, error) {
	return m.drain(func(pkt []byte, _ netip.AddrPort) { m.env.Sink.Deliver(pkt) })
}

// PollCostHint implements transport.CostHinter.
func (m *Module) PollCostHint() time.Duration { return 50 * time.Microsecond }

type conn struct {
	mu   sync.Mutex
	c    *net.UDPConn
	bw   *rawpoll.BatchWriter
	gso  bool
	gbuf []byte // GSO coalescing buffer, allocated on first use
	kept [][]byte
	loss float64
	rng  *rand.Rand // nil unless loss injection is on
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
