//go:build linux

package reactor

import (
	"sync"
	"syscall"
)

// epollET requests edge-triggered delivery. syscall.EPOLLET is declared as a
// negative untyped constant (-0x80000000); spelled positively it fits the
// uint32 Events field without a conversion dance.
const epollET = 1 << 31

// Reactor owns one epoll instance and the goroutine that waits on it.
// Registered file descriptors are watched edge-triggered for readability;
// when the kernel reports an event, the fd's notify callback runs on the
// reactor goroutine. Callbacks must be cheap and non-blocking — the intended
// implementation is a single atomic bit-set — because every registered fd
// shares the one waiter.
type Reactor struct {
	epfd  int
	wakeR int // pipe read end, registered with epoll to interrupt Wait
	wakeW int // pipe write end, written by Close

	mu     sync.Mutex
	notify map[int]func()
	closed bool
	exited chan struct{}
}

// Supported reports whether this platform can run a reactor.
func Supported() bool { return true }

// New creates a reactor and starts its waiter goroutine.
func New() (*Reactor, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	r := &Reactor{
		epfd:   epfd,
		wakeR:  p[0],
		wakeW:  p[1],
		notify: make(map[int]func()),
		exited: make(chan struct{}),
	}
	// The wake pipe is level-triggered on purpose: a Close racing the waiter
	// between epoll_wait calls must still be seen on the next call.
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(p[0])
		syscall.Close(p[1])
		return nil, err
	}
	go r.run()
	return r, nil
}

// Add registers fd for edge-triggered readability watching. notify runs on
// the reactor goroutine each time the kernel reports the fd readable; if the
// fd is already readable at registration time, an initial event is reported.
// The caller must Remove(fd) before closing the fd: closed descriptor
// numbers are reused by the OS, and a stale table entry would route a new
// socket's readiness to the old socket's callback.
func (r *Reactor) Add(fd int, notify func()) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.notify[fd] = notify
	r.mu.Unlock()
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLERR | syscall.EPOLLHUP | epollET,
		Fd:     int32(fd),
	}
	if err := syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		r.mu.Lock()
		delete(r.notify, fd)
		r.mu.Unlock()
		return err
	}
	return nil
}

// Remove stops watching fd. Safe to call for fds never added.
func (r *Reactor) Remove(fd int) {
	r.mu.Lock()
	_, known := r.notify[fd]
	delete(r.notify, fd)
	closed := r.closed
	r.mu.Unlock()
	if known && !closed {
		_ = syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_DEL, fd, nil) // fails only on an fd closed first, which left the set
	}
}

// Watched reports the number of registered fds (enquiry/testing).
func (r *Reactor) Watched() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.notify)
}

// Close stops the waiter goroutine and releases the epoll instance. It
// blocks until the waiter has exited, so no notify callback runs after
// Close returns.
func (r *Reactor) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.exited
		return
	}
	r.closed = true
	r.mu.Unlock()
	var one [1]byte
	_, _ = syscall.Write(r.wakeW, one[:]) // a full pipe already holds a wakeup
	<-r.exited
	syscall.Close(r.epfd)
	syscall.Close(r.wakeR)
	syscall.Close(r.wakeW)
}

func (r *Reactor) run() {
	defer close(r.exited)
	events := make([]syscall.EpollEvent, 64)
	for {
		n, err := syscall.EpollWait(r.epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			if fd == r.wakeR {
				r.mu.Lock()
				closed := r.closed
				r.mu.Unlock()
				if closed {
					return
				}
				continue
			}
			r.mu.Lock()
			fn := r.notify[fd]
			r.mu.Unlock()
			if fn != nil {
				fn()
			}
		}
	}
}
