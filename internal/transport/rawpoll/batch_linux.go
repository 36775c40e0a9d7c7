//go:build linux

package rawpoll

import (
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// This file implements syscall batching for datagram sockets: recvmmsg(2)
// drains a burst of queued datagrams in one kernel crossing, sendmmsg(2)
// flushes a train of outbound frames in one, and UDP generic segmentation
// offload (UDP_SEGMENT) collapses an equal-sized train into a single
// sendmsg(2) that the kernel (or the NIC) splits on the way out. The
// portable fallback in batch_portable.go presents the same API over
// one-datagram-per-syscall reads and writes.

// mmsghdr mirrors struct mmsghdr. Go pads the struct to the alignment of
// Msghdr exactly as the C compiler does, so the kernel's array stride
// matches on every Linux architecture.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
}

// zeroByte gives zero-length iovecs a valid base pointer.
var zeroByte byte

// sysSendmmsg is the sendmmsg(2) syscall number. The syscall package's
// frozen tables predate sendmmsg (Linux 3.0) on the older ports, so the
// number is resolved per architecture here; 0 means unknown, and Send falls
// back to one write(2) per frame on such a port.
var sysSendmmsg = func() uintptr {
	switch runtime.GOARCH {
	case "amd64":
		return 307
	case "386":
		return 345
	case "arm":
		return 374
	case "arm64", "riscv64", "loong64":
		return 269 // asm-generic table
	case "ppc64", "ppc64le":
		return 349
	case "s390x":
		return 358
	case "mips", "mipsle":
		return 4343 // O32: 4000 + 343
	case "mips64", "mips64le":
		return 5302 // N64: 5000 + 302
	}
	return 0
}()

// BatchReader drains multiple datagrams per syscall via recvmmsg(2). It owns
// a set of receive slots — persistent buffers plus the iovec/msghdr
// scaffolding recvmmsg fills — so steady-state receives perform no
// allocation: callers borrow Frame(i) until the next Recv call. Only the
// live slots have buffers. The reader starts with one and doubles the live
// count, up to Slots(), whenever a Recv fills them all, so an idle socket
// holds one buffer and a bursty one grows to its burst. Like Reader, it binds
// its recvmmsg callback once and is not safe for concurrent use.
type BatchReader struct {
	rc      syscall.RawConn
	recv    func(fd uintptr) bool
	bufs    [][]byte
	hdrs    []mmsghdr
	iovs    []syscall.Iovec
	names   []syscall.RawSockaddrInet6
	bufSize int
	live    int // slots with a buffer; recvmmsg fills at most this many
	count   int
	err     error // the last recvmmsg's result, set by recvFD
}

// NewBatchReader prepares batched non-blocking receives on c with the given
// slot capacity, each slot able to hold one datagram of up to bufSize bytes.
func NewBatchReader(c syscall.Conn, slots, bufSize int) (*BatchReader, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &BatchReader{
		rc:      rc,
		bufs:    make([][]byte, slots),
		hdrs:    make([]mmsghdr, slots),
		iovs:    make([]syscall.Iovec, slots),
		names:   make([]syscall.RawSockaddrInet6, slots),
		bufSize: bufSize,
	}
	b.recv = b.recvFD
	for i := 0; i < slots; i++ {
		b.hdrs[i].Hdr.Iov = &b.iovs[i]
		b.hdrs[i].Hdr.Iovlen = 1
		b.hdrs[i].Hdr.Name = (*byte)(unsafe.Pointer(&b.names[i]))
	}
	b.grow(1)
	return b, nil
}

// grow gives slots [live, n) their buffers and makes them live.
func (b *BatchReader) grow(n int) {
	for i := b.live; i < n; i++ {
		b.bufs[i] = make([]byte, b.bufSize)
		b.iovs[i].Base = &b.bufs[i][0]
		b.iovs[i].SetLen(b.bufSize)
	}
	b.live = n
}

// Slots reports the batch capacity.
func (b *BatchReader) Slots() int { return len(b.bufs) }

// Recv performs one non-blocking recvmmsg, filling up to the live slots.
// It returns the number received, or (0, ErrWouldBlock) when the socket has
// nothing queued. The filled slots are valid until the next Recv; a Recv
// that fills every live slot doubles them, up to Slots(), for the next.
func (b *BatchReader) Recv() (int, error) {
	b.count = 0
	if err := b.rc.Read(b.recv); err != nil {
		return 0, err
	}
	err := b.err
	b.err = nil
	if b.count == b.live && b.live < len(b.bufs) {
		b.grow(min(2*b.live, len(b.bufs)))
	}
	return b.count, err
}

func (b *BatchReader) recvFD(fd uintptr) bool {
	for {
		// The kernel overwrites Namelen with each datagram's actual
		// source-address length; reset before reuse.
		for i := range b.hdrs[:b.live] {
			b.hdrs[i].Hdr.Namelen = syscall.SizeofSockaddrInet6
		}
		r1, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(b.live),
			syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case e == syscall.EINTR:
			continue
		case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
			b.count, b.err = 0, ErrWouldBlock
		case e != 0:
			b.count, b.err = 0, e
		default:
			b.count, b.err = int(r1), nil
		}
		return true // never park; this is a poll
	}
}

// Frame returns slot i's datagram payload from the last Recv. The slice is
// borrowed: it aliases the slot buffer and is overwritten by the next Recv.
func (b *BatchReader) Frame(i int) []byte { return b.bufs[i][:b.hdrs[i].Len] }

// Addr returns slot i's source address from the last Recv (the zero
// AddrPort for address families the datagram modules do not use). It decodes
// the raw sockaddr in place and allocates nothing.
func (b *BatchReader) Addr(i int) netip.AddrPort {
	sa := &b.names[i]
	switch sa.Family {
	case syscall.AF_INET:
		a := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(a.Addr), ntohs(a.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), ntohs(sa.Port))
	default:
		return netip.AddrPort{}
	}
}

// ntohs decodes a sockaddr port, which the kernel stores in network byte order.
func ntohs(raw uint16) uint16 {
	p := (*[2]byte)(unsafe.Pointer(&raw))
	return uint16(p[0])<<8 | uint16(p[1])
}

// BatchWriter flushes trains of outbound frames on a connected datagram
// socket: one sendmmsg(2) per batch, or — for equal-sized trains on kernels
// with UDP generic segmentation offload — one sendmsg(2) for the whole
// train. Not safe for concurrent use; callers serialize (the datagram
// modules hold their connection mutex across Send).
type BatchWriter struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	oob  []byte
}

// NewBatchWriter prepares batched sends on c with the given per-call slot
// capacity (larger trains loop).
func NewBatchWriter(c syscall.Conn, slots int) (*BatchWriter, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &BatchWriter{
		rc:   rc,
		hdrs: make([]mmsghdr, slots),
		iovs: make([]syscall.Iovec, slots),
	}, nil
}

// Send transmits frames in order on the connected socket, one sendmmsg per
// slot-capacity chunk, parking on the runtime poller when the socket's send
// buffer is full. It returns the number of frames handed to the kernel; on
// error, frames beyond that were not attempted.
func (w *BatchWriter) Send(frames [][]byte) (int, error) {
	sent := 0
	var serr error
	err := w.rc.Write(func(fd uintptr) bool {
		for sent < len(frames) {
			if sysSendmmsg == 0 {
				// Port without a known sendmmsg number: one write per frame.
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
				continue
			}
			k := len(frames) - sent
			if k > len(w.hdrs) {
				k = len(w.hdrs)
			}
			for i := 0; i < k; i++ {
				f := frames[sent+i]
				if len(f) > 0 {
					w.iovs[i].Base = &f[0]
				} else {
					w.iovs[i].Base = &zeroByte
				}
				w.iovs[i].SetLen(len(f))
				w.hdrs[i].Hdr.Name = nil
				w.hdrs[i].Hdr.Namelen = 0
				w.hdrs[i].Hdr.Iov = &w.iovs[i]
				w.hdrs[i].Hdr.Iovlen = 1
				w.hdrs[i].Len = 0
			}
			r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&w.hdrs[0])), uintptr(k),
				syscall.MSG_DONTWAIT|syscall.MSG_NOSIGNAL, 0, 0)
			switch {
			case e == syscall.EINTR:
				continue
			case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
				return false // park until writable, then resume here
			case e != 0:
				serr = e
				return true
			default:
				sent += int(r1)
			}
		}
		return true
	})
	// Drop the borrowed frame references so the pool can recycle them
	// without this scaffolding keeping the arrays alive.
	for i := range w.iovs {
		w.iovs[i].Base = nil
	}
	if err != nil {
		return sent, err
	}
	return sent, serr
}

// Linux UDP_SEGMENT plumbing (not in the syscall package).
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT
)

// ProbeGSO reports whether the socket accepts the UDP_SEGMENT option, i.e.
// whether SendGSO will work on this kernel. The probe sets segmentation to 0
// (disabled), which leaves the socket's behavior unchanged.
func ProbeGSO(c syscall.Conn) bool {
	rc, err := c.SyscallConn()
	if err != nil {
		return false
	}
	ok := false
	_ = rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	return ok
}

// SendGSO transmits data as ceil(len(data)/seg) on-the-wire datagrams of seg
// bytes each (the last may be shorter) in a single sendmsg(2) carrying a
// UDP_SEGMENT control message — the kernel or NIC performs the split. The
// caller guarantees ProbeGSO returned true for this socket.
func (w *BatchWriter) SendGSO(data []byte, seg int) error {
	if w.oob == nil {
		w.oob = make([]byte, syscall.CmsgSpace(2))
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&w.oob[0]))
		h.Level = solUDP
		h.Type = udpSegment
		h.SetLen(syscall.CmsgLen(2))
	}
	*(*uint16)(unsafe.Pointer(&w.oob[syscall.CmsgLen(0)])) = uint16(seg)
	var serr error
	err := w.rc.Write(func(fd uintptr) bool {
		for {
			_, e := syscall.SendmsgN(int(fd), data, w.oob, nil,
				syscall.MSG_DONTWAIT|syscall.MSG_NOSIGNAL)
			switch {
			case e == syscall.EINTR:
				continue
			case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
				return false // park until writable
			default:
				serr = e
				return true
			}
		}
	})
	if err != nil {
		return err
	}
	return serr
}
