package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nexus/internal/reactor"
	"nexus/internal/transport"
)

// This file wires the readiness reactor (internal/reactor) into the context's
// polling loop. The process runs one reactor, shared by every context:
// modules implementing transport.Reactive register their socket fds with its
// epoll instance, and its one waiter goroutine turns kernel readiness events
// into bits in the owning context's atomic bitmap, which that context's
// polling loop consumes with one load per pass. A reactive module is polled
// only when its bit is set — an idle pass over reactor-backed methods costs
// zero syscalls, which is what collapses the poll-cost share of TCP/UDP
// detection that motivated skip_poll in the first place. Modules that cannot
// (or on platforms that cannot) use the reactor keep the portable polling
// path unchanged.

// atomicOr sets bits in v. (atomic.Uint64.Or needs Go 1.23; go.mod pins 1.22.)
func atomicOr(v *atomic.Uint64, bits uint64) {
	for {
		old := v.Load()
		if old&bits == bits || v.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// processReactor is the one reactor of the process. The first context that
// asks builds it, and nothing closes it: contexts come and go, and each
// module removes its own fds when it closes. A failed build (fd limits,
// exotic kernels) is not remembered — that context stays on the polling path
// and the next one tries again.
var processReactor struct {
	mu sync.Mutex
	r  *reactor.Reactor
}

// sharedReactor returns the process reactor, building it if none runs yet,
// or nil when the platform has none or the build fails.
func sharedReactor() *reactor.Reactor {
	processReactor.mu.Lock()
	defer processReactor.mu.Unlock()
	if processReactor.r == nil {
		if r, err := reactor.New(); err == nil {
			processReactor.r = r
		}
	}
	return processReactor.r
}

// moduleReadiness adapts the process reactor to the transport.Readiness
// surface one module sees: every fd the module adds notifies by setting that
// module's bit in its context's readiness bitmap. The notify callback runs on
// the reactor's waiter goroutine, which every context shares, and must stay
// this cheap. It may still run once for an fd just removed (the waiter read
// the callback before Remove took it out); that sets a bit, and the spurious
// edge costs one empty poll.
//
// It also implements the NAPI-style suppression the hot-poll grace window
// needs: while the polling loop probes a module directly (mid-transfer), the
// module's fds leave the kernel watch set entirely, so a stream of arriving
// chunks does not wake the reactor's waiter thread once per chunk — on a
// busy single-core machine those wakeups preempt the very poller that is
// already draining the data. Registrations made while suspended are parked
// in the fd set and join the kernel watch set on resume; EPOLL_CTL_ADD
// reports an fd that is already readable, so an edge that fired during
// suspension is never lost.
type moduleReadiness struct {
	c  *Context
	ms *moduleState

	mu        sync.Mutex
	fds       map[int]struct{}
	suspended bool
}

func (r *moduleReadiness) notify() { atomicOr(&r.c.ready, r.ms.readyBit) }

// watch puts fd into the kernel watch set. On failure the socket stays usable
// but is seen only by the cold probe, so the failure is counted and logged
// here, whatever the caller does with the returned error.
func (r *moduleReadiness) watch(fd int) error {
	err := r.c.rx.Add(fd, r.notify)
	if err != nil {
		r.c.stats.Counter("reactor.add_failed").Inc()
		r.c.errlog(fmt.Errorf("core: context %d: watching %s fd %d: %w", r.c.id, r.ms.name, fd, err))
	}
	return err
}

func (r *moduleReadiness) Add(fd int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.suspended {
		if err := r.watch(fd); err != nil {
			return err
		}
	}
	r.fds[fd] = struct{}{}
	return nil
}

func (r *moduleReadiness) Remove(fd int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.fds, fd)
	if !r.suspended {
		r.c.rx.Remove(fd)
	}
}

// suspend takes the module's fds out of the kernel watch set for the
// duration of a hot-poll window. Called from the polling goroutine.
func (r *moduleReadiness) suspend() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.suspended {
		return
	}
	r.suspended = true
	for fd := range r.fds {
		r.c.rx.Remove(fd)
	}
}

// resume re-registers the module's fds when its hot-poll window decays. An
// fd the kernel refuses is dropped from the set, counted and logged like any
// other failed registration.
func (r *moduleReadiness) resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.suspended {
		return
	}
	r.suspended = false
	for fd := range r.fds {
		if r.watch(fd) != nil {
			delete(r.fds, fd)
		}
	}
}

// attachReactive offers the reactor to a freshly initialized module. On
// success the module's Polls become readiness-driven; on any refusal
// (ErrNotReactive, no fds, bitmap full) the module simply stays on the
// portable polling path. Called before the module joins c.modules, so the
// reactive flag is published by the same lock that publishes the module.
func (c *Context) attachReactive(ms *moduleState) {
	if c.rx == nil {
		return
	}
	rm, ok := ms.module.(transport.Reactive)
	if !ok {
		return
	}
	c.mu.Lock()
	bit := c.nextReadyBit
	if bit >= 64 {
		c.mu.Unlock()
		return // bitmap full; the module stays poll-based
	}
	c.nextReadyBit++
	c.mu.Unlock()
	ms.readyBit = 1 << bit
	rd := &moduleReadiness{c: c, ms: ms, fds: make(map[int]struct{})}
	if err := rm.AttachReactor(rd); err != nil {
		ms.readyBit = 0
		return
	}
	ms.reactive = true
	ms.rd = rd
	// Seed one drain so anything that arrived before registration is picked
	// up on the first pass even if its edge predates the epoll add.
	atomicOr(&c.ready, ms.readyBit)
}

// ReactorActive reports whether this context uses the process's readiness
// reactor (Linux, not disabled by the options' test seam, and the reactor
// was built).
func (c *Context) ReactorActive() bool { return c.rx != nil }

// ReactiveMethods reports the names of methods currently on readiness-driven
// detection, in preference order.
func (c *Context) ReactiveMethods() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for _, ms := range c.modules {
		if ms.reactive {
			out = append(out, ms.name)
		}
	}
	return out
}
