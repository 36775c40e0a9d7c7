//go:build linux

package shm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nexus/internal/transport"
)

// Supported reports whether this build has a real shared-memory transport.
func Supported() bool { return true }

// ErrTooLarge reports a frame exceeding the segment's ring capacity bound.
// It wraps transport.ErrTooLarge like every size-limited module's error.
var ErrTooLarge = fmt.Errorf("shm: frame exceeds ring message limit: %w", transport.ErrTooLarge)

// Limits.
const (
	// carryLimit bounds the partial-line buffer for the control FIFO; a
	// writer streaming garbage without newlines is cut off here.
	carryLimit = 64 << 10
	// maxPollFrames bounds one Poll pass per segment, like the datagram
	// modules: a flooding peer cannot pin the polling loop.
	maxPollFrames = 1024
)

// segment is one mapped ring pair shared with exactly one peer context.
// rings[0] carries dialer→acceptor, rings[1] acceptor→dialer; cons is the
// index the local side consumes (0 when we accepted, 1 when we dialed).
type segment struct {
	mu   sync.RWMutex // RLock: push/drain; Lock: unmap
	mem  []byte       // nil once unmapped
	ring [2]ring

	cons    int
	maxMsg  int
	peerCtx transport.ContextID
	peerCtl string // peer's control FIFO (doorbell target)

	doorMu sync.Mutex
	doorFd int            // write end of peerCtl; -1 until opened, -2 after failure/close
	rung   *atomic.Uint64 // the owning module's shm.doorbells counter

	prodMu  [2]sync.Mutex // serializes producers per direction
	revRefs atomic.Int32  // accepted segments: live reverse conns
	dead    atomic.Bool   // scheduled for unmap + removal from the poll set
}

// Module is a shared-memory communication method instance.
type Module struct {
	ringSize   int
	sendTO     time.Duration
	baseDir    string
	staleAfter time.Duration

	mu      sync.Mutex
	env     transport.Env
	host    string
	dir     string
	ctlPath string
	rfd     int // FIFO read end (O_RDONLY|O_NONBLOCK)
	wfd     int // dummy write end: keeps the FIFO from reporting EOF
	rd      transport.Readiness
	segs    []*segment
	byPeer  map[transport.ContextID]*segment // accepted segments, newest wins
	carry   []byte
	rbuf    []byte
	inited  bool
	closed  bool

	empties   atomic.Int32 // consecutive empty Polls; the rings arm at transport.ParkPolls
	attaches  atomic.Uint64
	framesIn  atomic.Uint64
	doorbells atomic.Uint64 // doorbell bytes written to peers' FIFOs (segment.rung)
	corrupt   atomic.Uint64
	rejects   atomic.Uint64
	swept     atomic.Uint64
}

// New returns an uninitialized shared-memory module from its checked
// parameters v.
func New(v transport.Values) *Module {
	return &Module{
		ringSize:   ringSizeFor(v.Int("ring")),
		sendTO:     v.Duration("send_timeout"),
		baseDir:    v.Str("dir"),
		staleAfter: v.Duration("stale_after"),
		rfd:        -1,
		wfd:        -1,
	}
}

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

// MaxMessage implements transport.SizeLimiter: the bound a frame must meet
// to fit this module's own rings (dialed segments are created at that size).
func (m *Module) MaxMessage() int { return maxMessageFor(m.ringSize) }

// PollCostHint implements transport.CostHinter: a poll pass is a FIFO read
// plus a few loads per segment — far below a socket syscall, above inproc's
// pure memory exchange.
func (m *Module) PollCostHint() time.Duration { return time.Microsecond }

func (m *Module) base() string {
	if m.baseDir != "" {
		return m.baseDir
	}
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// Init creates the segment directory and control FIFO and sweeps crashed
// siblings.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inited {
		return nil, fmt.Errorf("shm: double Init for context %d", env.Context)
	}
	base := m.base()
	dir, err := os.MkdirTemp(base, "nexus-shm-")
	if err != nil {
		return nil, fmt.Errorf("shm: segment dir: %w", err)
	}
	ctl := filepath.Join(dir, "ctl.fifo")
	if err := syscall.Mkfifo(ctl, 0o600); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("shm: mkfifo: %w", err)
	}
	rfd, err := syscall.Open(ctl, syscall.O_RDONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("shm: open fifo: %w", err)
	}
	// A FIFO with no writer reports EOF to readers; holding our own dummy
	// write end keeps the read side permanently at "would block" instead.
	wfd, err := syscall.Open(ctl, syscall.O_WRONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if err != nil {
		syscall.Close(rfd)
		os.RemoveAll(dir)
		return nil, fmt.Errorf("shm: open fifo writer: %w", err)
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "localhost"
	}
	m.env = env
	m.host = host
	m.dir = dir
	m.ctlPath = ctl
	m.rfd = rfd
	m.wfd = wfd
	m.byPeer = make(map[transport.ContextID]*segment)
	m.rbuf = make([]byte, 4096)
	m.inited = true
	m.sweepStale(base)
	return &transport.Descriptor{
		Method:  Name,
		Context: env.Context,
		Attrs: map[string]string{
			attrHost:                 host,
			attrDir:                  dir,
			attrCtl:                  ctl,
			transport.AttrMaxMessage: strconv.Itoa(m.MaxMessage()),
		},
	}, nil
}

// sweepStale removes sibling segment directories whose control FIFO has no
// reader (ENXIO on a non-blocking write open — the owner is gone) and whose
// mtime is old. Best effort; called with m.mu held, after m.dir is set.
func (m *Module) sweepStale(base string) {
	entries, err := os.ReadDir(base)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || len(e.Name()) < 10 || e.Name()[:10] != "nexus-shm-" {
			continue
		}
		dir := filepath.Join(base, e.Name())
		if dir == m.dir {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < m.staleAfter {
			continue
		}
		ctl := filepath.Join(dir, "ctl.fifo")
		fd, err := syscall.Open(ctl, syscall.O_WRONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if err == nil {
			syscall.Close(fd) // a live reader: not stale
			continue
		}
		if errors.Is(err, syscall.ENXIO) || os.IsNotExist(err) {
			if os.RemoveAll(dir) == nil {
				m.swept.Add(1)
			}
		}
	}
}

// Applicable implements the locality rule: only descriptors from the same
// host whose control FIFO still exists match, so every selection policy —
// table order, cheapest-poll, observed-cost, size-aware — naturally prefers
// shared memory within a node and never considers it across nodes.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	m.mu.Lock()
	host, inited := m.host, m.inited
	m.mu.Unlock()
	if !inited || remote.Method != Name {
		return false
	}
	if remote.Attr(attrHost) == "" || remote.Attr(attrHost) != host {
		return false
	}
	ctl := remote.Attr(attrCtl)
	if ctl == "" {
		return false
	}
	st, err := os.Stat(ctl)
	return err == nil && st.Mode()&os.ModeNamedPipe != 0
}

// Dial opens a communication object to a same-host peer: either by claiming
// the reverse ring of a segment that peer already attached to us (no new
// mapping, no rendezvous), or by creating a fresh segment file in the peer's
// directory and announcing it on the peer's control FIFO.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	m.mu.Lock()
	if !m.inited {
		m.mu.Unlock()
		return nil, transport.ErrNotInitialized
	}
	if m.closed {
		m.mu.Unlock()
		return nil, transport.ErrClosed
	}
	m.mu.Unlock()
	if !m.Applicable(remote) {
		return nil, transport.ErrNotApplicable
	}
	if c := m.claimReverse(remote.Context); c != nil {
		return c, nil
	}
	return m.dialFresh(remote)
}

// claimReverse returns a connection over the acceptor→dialer ring of an
// already-accepted segment from peer, when that ring is still usable and at
// least as large as our own advertised message limit.
func (m *Module) claimReverse(peer transport.ContextID) *conn {
	m.mu.Lock()
	seg := m.byPeer[peer]
	m.mu.Unlock()
	if seg == nil || seg.dead.Load() || seg.maxMsg < m.MaxMessage() {
		return nil
	}
	if seg.ring[0].closed.Load() != 0 || seg.ring[1].closed.Load() != 0 {
		return nil
	}
	seg.revRefs.Add(1)
	if seg.dead.Load() { // lost the race with the reaper
		if seg.revRefs.Add(-1) == 0 {
			seg.ring[1].closed.Store(1)
		}
		return nil
	}
	return &conn{m: m, seg: seg, prod: 1, rev: true}
}

// dialFresh creates, maps, and announces a new segment in the peer's
// directory. The peer unlinks the file when it attaches; if the
// announcement fails we unlink it ourselves.
func (m *Module) dialFresh(remote transport.Descriptor) (transport.Conn, error) {
	rdir := remote.Attr(attrDir)
	rctl := remote.Attr(attrCtl)
	if rdir == "" {
		return nil, transport.ErrNotApplicable
	}
	f, err := os.CreateTemp(rdir, "seg-*")
	if err != nil {
		return nil, fmt.Errorf("shm: create segment: %w", err)
	}
	size := segSizeFor(m.ringSize)
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("shm: size segment: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	name := f.Name()
	f.Close() // the mapping keeps the pages; the fd is no longer needed
	if err != nil {
		os.Remove(name)
		return nil, fmt.Errorf("shm: mmap segment: %w", err)
	}
	initSegment(mem, uint64(m.ringSize), uint64(m.env.Context))
	seg := &segment{
		mem:     mem,
		ring:    ringsOf(mem, uint64(m.ringSize)),
		cons:    1,
		maxMsg:  maxMessageFor(m.ringSize),
		peerCtx: remote.Context,
		peerCtl: rctl,
		doorFd:  -1,
		rung:    &m.doorbells,
	}
	// This side consumes ring 1 and may already be parked (transport.Reactive,
	// rule 2): the ring starts armed so the peer's first frame on it rings.
	seg.ring[1].armed.Store(1)
	// Announce on the peer's FIFO. ENXIO means no reader — the peer died
	// between Applicable and here.
	wfd, err := syscall.Open(rctl, syscall.O_WRONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if err != nil {
		syscall.Munmap(mem)
		os.Remove(name)
		return nil, fmt.Errorf("shm: peer fifo: %w", err)
	}
	line := formatAttach(filepath.Base(name), uint64(m.env.Context), m.ctlPath)
	if err := writeFIFO(wfd, []byte(line), time.Now().Add(time.Second)); err != nil {
		syscall.Close(wfd)
		syscall.Munmap(mem)
		os.Remove(name)
		return nil, fmt.Errorf("shm: announce segment: %w", err)
	}
	seg.doorMu.Lock()
	seg.doorFd = wfd // reuse the announcement fd for doorbells
	seg.doorMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		syscall.Close(wfd)
		syscall.Munmap(mem)
		return nil, transport.ErrClosed
	}
	m.segs = append(m.segs, seg)
	m.mu.Unlock()
	return &conn{m: m, seg: seg, prod: 0}, nil
}

// writeFIFO writes b (shorter than PIPE_BUF, hence atomically) to a
// non-blocking FIFO, retrying EAGAIN until deadline.
func writeFIFO(fd int, b []byte, deadline time.Time) error {
	for len(b) > 0 {
		n, err := syscall.Write(fd, b)
		switch {
		case err == nil:
			b = b[n:]
		case errors.Is(err, syscall.EINTR):
		case errors.Is(err, syscall.EAGAIN):
			if time.Now().After(deadline) {
				return fmt.Errorf("shm: fifo full: %w", err)
			}
			time.Sleep(time.Millisecond)
		default:
			return err
		}
	}
	return nil
}

// AttachReactor implements transport.Reactive: the control FIFO's read end
// is the module's readiness fd. A parked consumer arms the in-ring doorbell
// flags; a producer that observes one writes a byte here, the kernel
// reports the fd readable, and the reactor wakes the context.
func (m *Module) AttachReactor(r transport.Readiness) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.inited {
		return transport.ErrNotInitialized
	}
	if m.closed {
		return transport.ErrClosed
	}
	if err := r.Add(m.rfd); err != nil {
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
		m.rd.Remove(m.rfd)
		m.rd = nil
	}
}

// Poll drains the control FIFO (attach announcements, doorbell bytes) and
// every segment's inbound ring, delivering frames zero-copy out of shared
// memory. At the transport.ParkPolls-th consecutive empty pass it arms the
// doorbells and drains once more — the sequentially consistent arm/publish
// handshake that makes parking lossless: a frame that raced the arming is
// either picked up by that drain or its producer observed the armed flag and
// rang the doorbell.
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
	progress := m.drainFIFOLocked()
	segs := make([]*segment, len(m.segs))
	copy(segs, m.segs)
	sink := m.env.Sink
	m.mu.Unlock()

	for _, seg := range segs {
		progress += m.pollSeg(seg, sink)
	}
	if progress == 0 && m.empties.Add(1) == transport.ParkPolls {
		for _, seg := range segs {
			seg.arm()
		}
		for _, seg := range segs {
			progress += m.pollSeg(seg, sink)
		}
	}
	if progress > 0 {
		m.empties.Store(0)
	}
	reap := false
	for _, seg := range segs {
		if seg.dead.Load() {
			reap = true
			break
		}
	}
	if reap {
		m.reap()
	}
	m.framesIn.Add(uint64(progress))
	return progress, nil
}

// drainFIFOLocked empties the control FIFO and attaches any announced
// segments. Doorbell bytes ('\n') and malformed lines are discarded.
// Called with m.mu held; returns the number of attaches (poll progress).
func (m *Module) drainFIFOLocked() int {
	for {
		n, err := syscall.Read(m.rfd, m.rbuf)
		if n > 0 {
			m.carry = append(m.carry, m.rbuf[:n]...)
		}
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil || n == 0 {
			break
		}
	}
	if len(m.carry) > carryLimit {
		m.carry = m.carry[:0] // a writer streaming garbage without newlines
	}
	attached := 0
	for {
		i := bytes.IndexByte(m.carry, '\n')
		if i < 0 {
			break
		}
		line := string(m.carry[:i])
		m.carry = append(m.carry[:0], m.carry[i+1:]...)
		msg, ok := parseAttach(line)
		if !ok {
			continue
		}
		if m.attachLocked(msg) {
			attached++
		}
	}
	return attached
}

// attachLocked maps an announced segment file, validates it, and unlinks it
// immediately — from here on the pages live exactly as long as the mappings.
func (m *Module) attachLocked(msg attachMsg) bool {
	path := filepath.Join(m.dir, msg.file)
	fd, err := syscall.Open(path, syscall.O_RDWR|syscall.O_NOFOLLOW|syscall.O_CLOEXEC, 0)
	if err != nil {
		m.rejects.Add(1)
		return false
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil ||
		st.Mode&syscall.S_IFMT != syscall.S_IFREG ||
		st.Size < hdrSize || st.Size > hdrSize+2*maxRingSize {
		syscall.Close(fd)
		os.Remove(path)
		m.rejects.Add(1)
		return false
	}
	mem, err := syscall.Mmap(fd, 0, int(st.Size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	syscall.Close(fd)
	os.Remove(path)
	if err != nil {
		m.rejects.Add(1)
		return false
	}
	rs, err := validateSegment(mem)
	if err != nil {
		syscall.Munmap(mem)
		m.rejects.Add(1)
		return false
	}
	seg := &segment{
		mem:     mem,
		ring:    ringsOf(mem, rs),
		cons:    0,
		maxMsg:  maxMessageFor(int(rs)),
		peerCtx: transport.ContextID(msg.ctx),
		peerCtl: msg.ctl,
		doorFd:  -1,
		rung:    &m.doorbells,
	}
	m.segs = append(m.segs, seg)
	m.byPeer[seg.peerCtx] = seg
	m.attaches.Add(1)
	return true
}

// pollSeg drains one segment's inbound ring, disarms its doorbell when
// traffic flows, poisons it on corruption, and schedules it for reaping
// when the peer is gone and the ring is drained.
func (m *Module) pollSeg(seg *segment, sink transport.Sink) int {
	seg.mu.RLock()
	if seg.mem == nil {
		seg.mu.RUnlock()
		return 0
	}
	r := &seg.ring[seg.cons]
	n, err := r.drain(sink, seg.maxMsg, maxPollFrames)
	if n > 0 && r.armed.Load() == 1 {
		r.armed.Store(0)
	}
	finished := r.closed.Load() != 0 && r.empty()
	seg.mu.RUnlock()
	if err != nil {
		m.corrupt.Add(1)
		seg.poison()
		return n
	}
	if finished && seg.cons == 0 && seg.revRefs.Load() == 0 {
		seg.dead.Store(true)
	}
	return n
}

// arm sets the doorbell flag on the ring this side consumes.
func (s *segment) arm() {
	s.mu.RLock()
	if s.mem != nil {
		s.ring[s.cons].armed.Store(1)
	}
	s.mu.RUnlock()
}

// poison marks a segment whose shared contents violated the ring
// invariants: both directions close, the mapping is reaped. Only this link
// dies; the module and its other segments are untouched.
func (s *segment) poison() {
	s.mu.RLock()
	if s.mem != nil {
		s.ring[0].closed.Store(1)
		s.ring[1].closed.Store(1)
	}
	s.mu.RUnlock()
	s.dead.Store(true)
}

// reap unmaps dead segments and drops them from the poll set.
func (m *Module) reap() {
	m.mu.Lock()
	kept := m.segs[:0]
	var dead []*segment
	for _, seg := range m.segs {
		if seg.dead.Load() {
			dead = append(dead, seg)
			if m.byPeer[seg.peerCtx] == seg {
				delete(m.byPeer, seg.peerCtx)
			}
		} else {
			kept = append(kept, seg)
		}
	}
	m.segs = kept
	m.mu.Unlock()
	for _, seg := range dead {
		seg.unmap()
	}
}

func (s *segment) unmap() {
	s.mu.Lock()
	if s.mem != nil {
		syscall.Munmap(s.mem)
		s.mem = nil
	}
	s.mu.Unlock()
	s.doorMu.Lock()
	if s.doorFd >= 0 {
		syscall.Close(s.doorFd)
	}
	s.doorFd = -2
	s.doorMu.Unlock()
}

// doorbell wakes the consumer of ring i if it armed the flag: one byte on
// its control FIFO makes the fd the reactor watches readable. The CAS means
// exactly one producer pays the syscall per park; EAGAIN (pipe full) is
// ignored — a full pipe is already readable.
func (s *segment) doorbell(i int) {
	r := &s.ring[i]
	if r.armed.Load() != 1 || !r.armed.CompareAndSwap(1, 0) {
		return
	}
	s.doorMu.Lock()
	fd := s.doorFd
	if fd == -1 {
		f, err := syscall.Open(s.peerCtl, syscall.O_WRONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if err != nil {
			s.doorFd = -2
			s.doorMu.Unlock()
			return
		}
		s.doorFd = f
		fd = f
	}
	if fd >= 0 {
		_, _ = syscall.Write(fd, []byte{'\n'})
		s.rung.Add(1)
	}
	s.doorMu.Unlock()
}

// push publishes one frame on ring i, waiting (bounded) for space. The
// caller holds prodMu[i]. ring reserves the doorbell to the caller so a
// batch rings once.
func (s *segment) push(i int, frame []byte, timeout time.Duration, ring bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.mem == nil {
		return transport.ErrClosed
	}
	r := &s.ring[i]
	var deadline time.Time
	spins := 0
	for {
		if r.closed.Load() != 0 {
			return transport.ErrClosed
		}
		ok, err := r.tryPush(frame)
		if err != nil {
			s.dead.Store(true)
			return err
		}
		if ok {
			break
		}
		// Ring full: the consumer is behind. Spin briefly, then sleep, then
		// give up — a peer that stopped draining must not wedge the sender.
		spins++
		switch {
		case spins < 256:
			runtime.Gosched()
		default:
			if deadline.IsZero() {
				deadline = time.Now().Add(timeout)
			} else if time.Now().After(deadline) {
				return fmt.Errorf("shm: ring full for %v to ctx %d: peer not draining", timeout, s.peerCtx)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	if ring {
		s.doorbell(i)
	}
	return nil
}

// conn is a communication object over one direction of a segment.
type conn struct {
	m      *Module
	seg    *segment
	prod   int // ring index this conn produces
	rev    bool
	closed atomic.Bool
}

// Send implements transport.Conn: one memcpy into the shared ring, one
// doorbell at most.
func (c *conn) Send(frame []byte) error {
	if len(frame) > c.seg.maxMsg {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(frame))
	}
	if c.closed.Load() {
		return transport.ErrClosed
	}
	c.seg.prodMu[c.prod].Lock()
	defer c.seg.prodMu[c.prod].Unlock()
	return c.seg.push(c.prod, frame, c.m.sendTO, true)
}

// SendBatch implements transport.BatchSender: the whole train goes in under
// one producer lock with a single doorbell at the end.
func (c *conn) SendBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if len(f) > c.seg.maxMsg {
			return i, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(f))
		}
	}
	if c.closed.Load() {
		return 0, transport.ErrClosed
	}
	c.seg.prodMu[c.prod].Lock()
	defer c.seg.prodMu[c.prod].Unlock()
	for i, f := range frames {
		if err := c.seg.push(c.prod, f, c.m.sendTO, false); err != nil {
			if i > 0 {
				c.seg.doorbell(c.prod)
			}
			return i, err
		}
	}
	if len(frames) > 0 {
		c.seg.doorbell(c.prod)
	}
	return len(frames), nil
}

func (c *conn) Method() string { return Name }

// Close shuts this conn's direction down. A dialer closing its fresh
// segment closes both directions (it is ring 0's producer and ring 1's
// consumer) and wakes the peer so it can drain and reap; the last reverse
// conn on an accepted segment closes only the reverse direction.
func (c *conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	seg := c.seg
	if c.rev {
		if seg.revRefs.Add(-1) == 0 {
			seg.mu.RLock()
			if seg.mem != nil {
				seg.ring[1].closed.Store(1)
				if seg.ring[0].closed.Load() != 0 && seg.ring[0].empty() {
					seg.dead.Store(true)
				}
			}
			seg.mu.RUnlock()
			seg.doorbell(1)
		}
		return nil
	}
	seg.mu.RLock()
	if seg.mem != nil {
		seg.ring[0].closed.Store(1)
		seg.ring[1].closed.Store(1)
	}
	seg.mu.RUnlock()
	seg.doorbell(0)
	seg.dead.Store(true)
	c.m.reap()
	return nil
}

// TransportStats implements transport.StatsReporter.
func (m *Module) TransportStats() map[string]uint64 {
	m.mu.Lock()
	segs := uint64(len(m.segs))
	m.mu.Unlock()
	return map[string]uint64{
		"shm.segments":        segs,
		"shm.attaches":        m.attaches.Load(),
		"shm.frames.in":       m.framesIn.Load(),
		"shm.doorbells":       m.doorbells.Load(),
		"shm.attach.rejected": m.rejects.Load(),
		"shm.ring.corrupt":    m.corrupt.Load(),
		"shm.stale.swept":     m.swept.Load(),
	}
}

// Close shuts the module down: every segment closes both directions, peers
// are woken to reap their side, mappings are released, and the segment
// directory — FIFO included — is removed.
func (m *Module) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	if m.rd != nil {
		m.rd.Remove(m.rfd) // before close: the OS reuses fd numbers
		m.rd = nil
	}
	segs := m.segs
	m.segs = nil
	m.byPeer = nil
	rfd, wfd, dir := m.rfd, m.wfd, m.dir
	m.rfd, m.wfd = -1, -1
	m.mu.Unlock()

	for _, seg := range segs {
		seg.mu.RLock()
		if seg.mem != nil {
			seg.ring[0].closed.Store(1)
			seg.ring[1].closed.Store(1)
		}
		seg.mu.RUnlock()
		seg.doorbell(1 - seg.cons) // wake the peer's consumer side
		seg.dead.Store(true)
		seg.unmap()
	}
	if rfd >= 0 {
		syscall.Close(rfd)
	}
	if wfd >= 0 {
		syscall.Close(wfd)
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
	return nil
}
