// Package rawpoll provides non-blocking socket reads for poll-driven
// transport modules.
//
// Go's deadline-based reads return ErrDeadlineExceeded without attempting the
// read once the deadline has expired, so they cannot express "give me
// whatever is buffered right now". This package performs one genuine
// non-blocking read(2) on the connection's file descriptor — the faithful
// analogue of the zero-timeout select(2) the paper's TCP module uses to
// detect pending communication, with the same per-call system-call cost.
package rawpoll

import (
	"errors"
	"io"
	"net"
	"syscall"
)

// ErrWouldBlock reports that no data was available at the time of the read.
var ErrWouldBlock = errors.New("rawpoll: no data available")

// Reader performs non-blocking reads on one socket. It is not safe for
// concurrent use: the read callbacks are bound once, in NewReader, and one
// call's buffer and results travel in the Reader's fields, so a probe that
// finds the socket empty allocates nothing.
type Reader struct {
	rc             syscall.RawConn
	read, readFrom func(fd uintptr) bool

	buf  []byte
	n    int
	from *net.UDPAddr
	err  error
}

// NewReader prepares non-blocking reads on c (any *net.TCPConn,
// *net.UDPConn, or other syscall.Conn).
func NewReader(c syscall.Conn) (*Reader, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	r := &Reader{rc: rc}
	r.read, r.readFrom = r.readFD, r.readFromFD
	return r, nil
}

// Read performs one non-blocking read into buf. It returns the number of
// bytes read; (0, ErrWouldBlock) when the socket has no data; (0, io.EOF) at
// end of stream.
func (r *Reader) Read(buf []byte) (int, error) {
	r.buf = buf
	err := r.rc.Read(r.read)
	n, rerr := r.n, r.err
	r.buf, r.err = nil, nil // keep no reference to the caller's buffer
	if err != nil {
		return 0, err
	}
	return n, rerr
}

func (r *Reader) readFD(fd uintptr) bool {
	for {
		m, e := syscall.Read(int(fd), r.buf)
		switch {
		case e == syscall.EINTR:
			continue
		case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
			r.n, r.err = 0, ErrWouldBlock
		case e != nil:
			r.n, r.err = 0, e
		case m == 0:
			r.n, r.err = 0, io.EOF
		default:
			r.n, r.err = m, nil
		}
		return true // never park; this is a poll
	}
}

// ReadFrom performs one non-blocking recvfrom(2) into buf, returning the
// datagram's source address. It returns (0, nil, ErrWouldBlock) when no
// datagram is queued. Only meaningful for datagram sockets.
func (r *Reader) ReadFrom(buf []byte) (int, *net.UDPAddr, error) {
	r.buf = buf
	err := r.rc.Read(r.readFrom)
	n, from, rerr := r.n, r.from, r.err
	r.buf, r.from, r.err = nil, nil, nil
	if err != nil {
		return 0, nil, err
	}
	return n, from, rerr
}

func (r *Reader) readFromFD(fd uintptr) bool {
	for {
		m, sa, e := syscall.Recvfrom(int(fd), r.buf, 0)
		switch {
		case e == syscall.EINTR:
			continue
		case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
			r.n, r.from, r.err = 0, nil, ErrWouldBlock
		case e != nil:
			r.n, r.from, r.err = 0, nil, e
		default:
			r.n, r.from, r.err = m, sockaddrToUDP(sa), nil
		}
		return true // never park; this is a poll
	}
}

func sockaddrToUDP(sa syscall.Sockaddr) *net.UDPAddr {
	switch a := sa.(type) {
	case *syscall.SockaddrInet4:
		return &net.UDPAddr{IP: append([]byte(nil), a.Addr[:]...), Port: a.Port}
	case *syscall.SockaddrInet6:
		return &net.UDPAddr{IP: append([]byte(nil), a.Addr[:]...), Port: a.Port}
	default:
		return nil
	}
}
