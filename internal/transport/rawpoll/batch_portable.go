//go:build !linux

package rawpoll

import (
	"errors"
	"net/netip"
	"syscall"
)

// Portable fallback for the batched datagram API: the same surface as
// batch_linux.go, implemented as one recvfrom/write(2) per datagram. Modules
// written against BatchReader/BatchWriter build and run on every platform;
// only the per-syscall amortization is Linux-specific.

// ErrGSOUnsupported reports SendGSO on a platform without UDP segmentation
// offload. Unreachable through correct use: ProbeGSO reports false here.
var ErrGSOUnsupported = errors.New("rawpoll: UDP GSO not supported on this platform")

// BatchReader drains multiple datagrams per Recv call. On this platform each
// datagram costs one recvfrom(2); the call-level API still lets modules
// amortize their own per-pass overhead. Like the Linux reader, it starts with
// one live slot and doubles the live count, up to Slots(), whenever a Recv
// fills them all.
type BatchReader struct {
	rd      *Reader
	bufs    [][]byte
	lens    []int
	addrs   []netip.AddrPort
	bufSize int
	live    int // slots with a buffer; Recv fills at most this many
	count   int
}

// NewBatchReader prepares batched non-blocking receives on c with the given
// slot capacity, each slot able to hold one datagram of up to bufSize bytes.
func NewBatchReader(c syscall.Conn, slots, bufSize int) (*BatchReader, error) {
	rd, err := NewReader(c)
	if err != nil {
		return nil, err
	}
	b := &BatchReader{
		rd:      rd,
		bufs:    make([][]byte, slots),
		lens:    make([]int, slots),
		addrs:   make([]netip.AddrPort, slots),
		bufSize: bufSize,
	}
	b.grow(1)
	return b, nil
}

// grow gives slots [live, n) their buffers and makes them live.
func (b *BatchReader) grow(n int) {
	for i := b.live; i < n; i++ {
		b.bufs[i] = make([]byte, b.bufSize)
	}
	b.live = n
}

// Slots reports the batch capacity.
func (b *BatchReader) Slots() int { return len(b.bufs) }

// Recv fills up to the live slots with non-blocking reads. It returns the
// number received, or (0, ErrWouldBlock) when the socket has nothing queued.
// A Recv that fills every live slot doubles them, up to Slots(), for the next.
func (b *BatchReader) Recv() (int, error) {
	n := 0
	for n < b.live {
		m, from, err := b.rd.ReadFrom(b.bufs[n])
		if err != nil {
			if errors.Is(err, ErrWouldBlock) {
				break
			}
			if n > 0 {
				break // surface the error on the next call
			}
			return 0, err
		}
		b.lens[n] = m
		b.addrs[n] = from.AddrPort()
		n++
	}
	b.count = n
	if n == b.live && b.live < len(b.bufs) {
		b.grow(min(2*b.live, len(b.bufs)))
	}
	if n == 0 {
		return 0, ErrWouldBlock
	}
	return n, nil
}

// Frame returns slot i's datagram payload from the last Recv. The slice is
// borrowed: it aliases the slot buffer and is overwritten by the next Recv.
func (b *BatchReader) Frame(i int) []byte { return b.bufs[i][:b.lens[i]] }

// Addr returns slot i's source address from the last Recv (the zero
// AddrPort when the source family is not IPv4 or IPv6).
func (b *BatchReader) Addr(i int) netip.AddrPort { return b.addrs[i] }

// BatchWriter flushes trains of outbound frames on a connected datagram
// socket. On this platform each frame costs one write(2).
type BatchWriter struct {
	rc syscall.RawConn
}

// NewBatchWriter prepares batched sends on c. slots is accepted for API
// compatibility; this platform sends one frame per syscall regardless.
func NewBatchWriter(c syscall.Conn, slots int) (*BatchWriter, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &BatchWriter{rc: rc}, nil
}

// Send transmits frames in order on the connected socket, parking on the
// runtime poller when the send buffer is full. It returns the number of
// frames handed to the kernel.
func (w *BatchWriter) Send(frames [][]byte) (int, error) {
	sent := 0
	var serr error
	err := w.rc.Write(func(fd uintptr) bool {
		for sent < len(frames) {
			_, e := syscall.Write(int(fd), frames[sent])
			switch {
			case e == syscall.EINTR:
				continue
			case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
				return false // park until writable, then resume here
			case e != nil:
				serr = e
				return true
			default:
				sent++
			}
		}
		return true
	})
	if err != nil {
		return sent, err
	}
	return sent, serr
}

// ProbeGSO reports false: no UDP segmentation offload on this platform.
func ProbeGSO(c syscall.Conn) bool { return false }

// SendGSO is unreachable on this platform (ProbeGSO reports false).
func (w *BatchWriter) SendGSO(data []byte, seg int) error { return ErrGSOUnsupported }
