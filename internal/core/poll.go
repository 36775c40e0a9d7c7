package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"nexus/internal/obsv"
	"nexus/internal/transport"
)

// Poll performs one pass of the unified polling function: it iterates over
// the context's communication modules in order and invokes each module's
// method-specific poll, except modules whose skip_poll countdown has not
// expired or, on the reactor path, that report no readiness. It returns the
// number of frames delivered.
//
// skip_poll semantics follow the paper: with skip_poll k, the module is
// checked on every k-th pass, so an expensive, infrequently used method
// (TCP) taxes a cheap, frequently used one (MPL/inproc) only 1/k of the
// time.
func (c *Context) Poll() int {
	c.pollMu.Lock()
	defer c.pollMu.Unlock()
	return c.pollPassLocked()
}

// tryPoll performs a pass only if no other poll is in progress; used for the
// opportunistic poll on each RSR so sends never block behind a concurrent
// poller.
func (c *Context) tryPoll() int {
	if !c.pollMu.TryLock() {
		return 0
	}
	defer c.pollMu.Unlock()
	return c.pollPassLocked()
}

// reactiveHotPasses is the direct-probe grace window for reactive modules: a
// module that just saw a readiness edge or delivered frames is mid-transfer,
// so the next passes probe it without waiting for another edge. The window
// must outlast the passes a spinning caller burns during one round trip of
// the traffic pattern it is protecting — a ping-pong peer spins through
// hundreds of sub-microsecond passes while its 30 µs reply is in flight, and
// if the window closes first, every round pays the cross-thread epoll
// notification instead (milliseconds when pollers monopolize a busy CPU).
// The cost of oversizing is only a bounded tail of cheap empty probes after
// traffic stops.
//
// The window is also how this loop keeps the poller's half of the
// transport.Reactive contract: after an edge or a non-zero Poll the module is
// probed until reactiveHotPasses consecutive probes came up empty, which
// covers the transport.ParkPolls the contract asks for (asserted below) — so
// a module may stop a Poll at its per-pass bound, and shm is armed long
// before its fd rejoins the kernel watch set.
const reactiveHotPasses = 4096

const _ = uint(reactiveHotPasses - transport.ParkPolls) // compile-time: reactiveHotPasses >= ParkPolls

// reactiveColdProbe bounds notification latency for a cold module: even with
// no readiness edge it is probed directly on every reactiveColdProbe-th
// pass. The epoll waiter goroutine needs the scheduler's cooperation to turn
// a kernel event into a ready bit; when spinning pollers keep the CPU busy,
// that handoff can take milliseconds. The periodic probe caps the damage at
// reactiveColdProbe fast passes (microseconds) while costing an idle context
// only 1/reactiveColdProbe of a probe per pass — and when passes are slow
// (sleeping caller), the CPU is idle and the waiter's bit arrives first
// anyway.
const reactiveColdProbe = 256

func (c *Context) pollPassLocked() int {
	c.mu.RLock()
	mods := c.modules
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return 0
	}
	c.pollPass++
	c.cPollPasses.Inc()
	statsOn := c.obs.mode.Load()&obsStats != 0
	// Claim this pass's readiness edges in one atomic swap. Bits must be
	// cleared BEFORE the modules drain: data arriving during a drain re-sets
	// the bit and forces another pass, so no edge is ever consumed unseen.
	var ready uint64
	if c.rx != nil {
		ready = c.ready.Swap(0)
	}
	total := 0
	for _, ms := range mods {
		// A skip_poll value set by hand (SetSkipPoll, MethodConfig.SkipPoll)
		// takes a reactive module off readiness-driven detection: it is then
		// probed on every k-th pass like any other module, until
		// UnpinSkipPoll.
		reactive := ms.reactive && !ms.pinned
		edge := false
		if reactive {
			// Readiness-driven: the kernel says whether this module has
			// inbound data. No bit, no syscall — the skip_poll countdown
			// doesn't apply (readiness is a strictly better version of the
			// same economy). A module with a recent edge stays "hot" and is
			// probed directly for a grace window: during a transfer the
			// direct probe finds data the instant it lands, where waiting for
			// the epoll waiter's cross-thread notification would add
			// scheduling latency to every window round trip.
			edge = ready&ms.readyBit != 0
			if !edge && ms.hot == 0 {
				if ms.cold++; ms.cold < reactiveColdProbe {
					continue
				}
				ms.cold = 0 // periodic safety probe: fall through
			}
			if ms.pollDisabled && !c.health.allowed(ms.name, receivePeer) {
				if edge {
					// Keep the claimed edge for whenever the probe is
					// granted: dropping it here would strand buffered data
					// forever.
					atomicOr(&c.ready, ms.readyBit)
				}
				continue
			}
		} else if ms.pollDisabled {
			// The module's receive path tripped its circuit. Poll it again
			// only when the health registry grants a half-open probe.
			if !c.health.allowed(ms.name, receivePeer) {
				continue
			}
		} else {
			if ms.countdown > 0 {
				ms.countdown--
				continue
			}
			ms.countdown = ms.skip - 1
		}
		ms.polls.Inc()
		var t0 time.Time
		if statsOn {
			// pollStart lets dispatch attribute detection latency to traced
			// frames this Poll call delivers (it runs synchronously inside
			// Poll via the module's sink).
			t0 = time.Now()
			ms.pollStart.Store(t0.UnixNano())
		}
		n, err := ms.module.Poll()
		if statsOn {
			ms.pollStart.Store(0)
			ms.lat.Stage(obsv.StagePoll).Record(time.Since(t0))
		}
		if err != nil {
			ms.pollErrs.Inc()
			if reactive {
				// The edge was claimed but the drain failed; data may remain
				// buffered, so the module must be re-polled without waiting
				// for a fresh kernel event that will never come.
				atomicOr(&c.ready, ms.readyBit)
			}
			c.errlog(fmt.Errorf("core: context %d: polling %s: %w", c.id, ms.name, err))
			if ms.pollDisabled {
				// Failed probe: push the circuit back to open with a longer
				// backoff.
				c.health.reportFailure(ms.name, receivePeer, err)
				continue
			}
			ms.consecPollErrs++
			if ms.consecPollErrs >= c.health.cfg.pollFailureThreshold {
				ms.pollDisabled = true
				c.health.tripNow(ms.name, receivePeer, err)
				c.stats.Counter("poll.disabled").Inc()
				c.errlog(fmt.Errorf("core: context %d: method %s left polling rotation after %d consecutive errors", c.id, ms.name, ms.consecPollErrs))
			}
			continue
		}
		if ms.pollDisabled {
			// Successful probe: the receive path is back.
			ms.pollDisabled = false
			c.health.reportSuccess(ms.name, receivePeer)
		}
		ms.consecPollErrs = 0
		if reactive {
			// An edge counts as activity even when no complete frame came
			// out of the drain: a large frame streaming in arrives as many
			// edges that each deliver nothing until the last one. Entering
			// the hot window suspends the module's kernel watch (the direct
			// probes replace it); the window decaying to zero restores it.
			if n > 0 || edge {
				if ms.hot == 0 {
					ms.rd.suspend()
				}
				ms.hot = reactiveHotPasses
				ms.cold = 0
			} else if ms.hot > 0 {
				ms.hot--
				if ms.hot == 0 {
					ms.rd.resume()
				}
			}
		}
		total += n
	}
	// Sweep abandoned partial bulk messages. With nothing buffered — the
	// steady state — this is one atomic load and, crucially, no time.Now():
	// the clock read costs more than the whole empty poll pass otherwise.
	if c.frags.Partials() > 0 {
		if n := c.frags.Expire(time.Now()); n > 0 {
			c.cFragExpired.Add(uint64(n))
		}
	}
	return total
}

// deadlineCheckInterval is how many PollUntil passes run between clock
// reads. Reading the monotonic clock on every pass is a measurable tax on
// the spin loop (a vDSO call per pass, comparable to an inproc poll itself);
// checking every 32nd pass cuts that tax to noise while bounding timeout
// overshoot to ~32 empty passes — microseconds on any real machine.
const deadlineCheckInterval = 32

// PollUntil polls until pred returns true or the timeout elapses, yielding
// the processor between empty passes. It reports whether pred held. The
// deadline is checked on the first pass and then every
// deadlineCheckInterval-th pass, so the timeout is a lower bound with slack
// of at most that many passes.
func (c *Context) PollUntil(pred func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for pass := 0; ; pass++ {
		if pred() {
			return true
		}
		if pass%deadlineCheckInterval == 0 && time.Now().After(deadline) {
			return false
		}
		if c.Poll() == 0 {
			runtime.Gosched()
		}
	}
}

// SetSkipPoll sets the skip_poll parameter for one method: the method is
// polled on every k-th pass, whether or not a reactor watches its sockets.
// k < 1 is treated as 1. A value set this way is pinned: AutoSkipPoll will
// not overwrite it until UnpinSkipPoll releases the method.
func (c *Context) SetSkipPoll(method string, k int) error {
	ms := c.moduleFor(method)
	if ms == nil {
		return fmt.Errorf("core: %w: %q", ErrUnknownMethod, method)
	}
	ms.setSkipPoll(&c.pollMu, k, true)
	return nil
}

// UnpinSkipPoll releases a method pinned by SetSkipPoll back to AutoSkipPoll,
// and a reactive method back to readiness-driven detection. The current skip
// value is kept until AutoSkipPoll moves it.
func (c *Context) UnpinSkipPoll(method string) error {
	ms := c.moduleFor(method)
	if ms == nil {
		return fmt.Errorf("core: %w: %q", ErrUnknownMethod, method)
	}
	c.pollMu.Lock()
	ms.pinned = false
	c.pollMu.Unlock()
	if ms.reactive {
		// Readiness edges claimed while the module was pinned were dropped
		// unread; seed one drain so data they announced is not stranded.
		atomicOr(&c.ready, ms.readyBit)
	}
	return nil
}

// setSkipPoll is the shared skip_poll writer; pollMu is the owning context's,
// which guards skip, countdown and pinned. pin=true (SetSkipPoll) marks the
// module as manually controlled; pin=false (AutoSkipPoll) is a no-op on
// pinned modules, so a manual choice survives it. k < 1 is treated as 1.
func (ms *moduleState) setSkipPoll(pollMu *sync.Mutex, k int, pin bool) {
	if k < 1 {
		k = 1
	}
	pollMu.Lock()
	if pin {
		ms.pinned = true
	} else if ms.pinned {
		pollMu.Unlock()
		return
	}
	ms.skip = k
	if ms.countdown >= k {
		ms.countdown = k - 1
	}
	pollMu.Unlock()
	ms.skipAtomic.Store(int64(k))
}

// SkipPoll reports the current skip_poll value for a method (0 if unknown).
func (c *Context) SkipPoll(method string) int {
	ms := c.moduleFor(method)
	if ms == nil {
		return 0
	}
	return int(ms.skipAtomic.Load())
}

// AutoSkipPoll derives skip_poll values from the modules' poll costs: the
// cheapest method keeps skip 1 and each other method is skipped in
// proportion to how much more its poll costs — the paper's "adaptive
// adjustment of skip_poll values" future-work refinement in its simplest
// static form. With stats enabled, a method's cost is its observed mean poll
// latency once enough samples exist (pollCostEstimate); otherwise the
// module's static PollCostHint is used.
func (c *Context) AutoSkipPoll() {
	costs, minCost := c.polledCosts()
	for ms, cost := range costs {
		ms.setSkipPoll(&c.pollMu, int(cost/minCost), false)
	}
}

// polledCosts reports the poll cost (pollCostEstimate) of every method the
// polling loop applies skip_poll to, and the cheapest of them. An unpinned
// reactive method is detected by readiness instead: its nominal
// reactivePollCost must not be the yardstick the polled methods are scaled by.
func (c *Context) polledCosts() (map[*moduleState]time.Duration, time.Duration) {
	c.mu.RLock()
	mods := c.modules
	c.mu.RUnlock()
	c.pollMu.Lock() // guards pinned
	polled := slices.DeleteFunc(slices.Clone(mods), func(ms *moduleState) bool { return ms.reactive && !ms.pinned })
	c.pollMu.Unlock()
	var minCost time.Duration
	costs := make(map[*moduleState]time.Duration, len(polled))
	for _, ms := range polled {
		if cost := c.pollCostEstimate(ms); cost > 0 {
			costs[ms] = cost
			if minCost == 0 || cost < minCost {
				minCost = cost
			}
		}
	}
	return costs, minCost
}

// StartPoller launches a background goroutine that polls continuously,
// sleeping idle for the given duration between empty passes (0 means yield
// only). It returns a stop function that blocks until the poller exits.
func (c *Context) StartPoller(idle time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
			}
			if c.Poll() == 0 {
				if idle > 0 {
					time.Sleep(idle)
				} else {
					runtime.Gosched()
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// DisableMethod shuts one communication method down at runtime: its module
// is closed, its descriptor leaves the advertised table, and the polling
// loop skips it. Existing connections over the method fail on their next
// send, which is what triggers startpoint failover (SetFailover) — the
// paper's "switch among alternative communication substrates in the event of
// error".
func (c *Context) DisableMethod(method string) error {
	c.mu.Lock()
	ms := c.byMethod[method]
	if ms == nil {
		c.mu.Unlock()
		return fmt.Errorf("core: %w: %q", ErrUnknownMethod, method)
	}
	delete(c.byMethod, method)
	kept := c.modules[:0]
	for _, m := range c.modules {
		if m != ms {
			kept = append(kept, m)
		}
	}
	c.modules = kept
	c.advertised.Remove(method)
	// Drop shared connections over the method so subsequent sends reselect.
	var toClose []transport.Conn
	for key, sc := range c.conns {
		if key.method == method {
			toClose = append(toClose, sc.conn)
			delete(c.conns, key)
		}
	}
	c.mu.Unlock()
	for _, conn := range toClose {
		conn.Close()
	}
	return ms.module.Close()
}

// MethodInfo is the enquiry record for one enabled method.
type MethodInfo struct {
	// Name is the method name.
	Name string
	// Descriptor advertises this context's reachability by the method (nil
	// for send-only methods).
	Descriptor *transport.Descriptor
	// SkipPoll is the current skip_poll value.
	SkipPoll int
	// Pinned reports whether the skip_poll value was set manually
	// (SetSkipPoll) and is therefore off-limits to AutoSkipPoll.
	Pinned bool
	// Reactive reports whether the method's sockets are watched by the
	// context's reactor. Unless Pinned, the polling loop then touches it only
	// when the kernel reports inbound data.
	Reactive bool
	// Polls is the number of module polls performed so far.
	Polls uint64
	// Frames is the number of inbound frames the method has delivered.
	Frames uint64
	// PollCostHint is the module's advertised per-poll cost (0 if unknown).
	PollCostHint time.Duration
	// MaxMessage is the largest encoded frame the method accepts in one send
	// (transport.SizeLimiter; 0 means unlimited). RSRs whose frame exceeds
	// it still go through — as fragments, reassembled at the receiver.
	MaxMessage int
	// ObservedPollCost is the mean measured poll latency from the
	// observability histograms (0 until stats are enabled and the method
	// has enough samples). When non-zero it is what selection and
	// AutoSkipPoll actually use.
	ObservedPollCost time.Duration
}

// Methods returns enquiry records for every enabled method, in preference
// order. This is the paper's enquiry interface: programs inspect it to
// evaluate automatic selection or tune manual choices.
func (c *Context) Methods() []MethodInfo {
	c.mu.RLock()
	mods := make([]*moduleState, len(c.modules))
	copy(mods, c.modules)
	c.mu.RUnlock()
	out := make([]MethodInfo, 0, len(mods))
	c.pollMu.Lock()
	defer c.pollMu.Unlock()
	for _, ms := range mods {
		mi := MethodInfo{
			Name:     ms.name,
			SkipPoll: ms.skip,
			Pinned:   ms.pinned,
			Reactive: ms.reactive,
			Polls:    ms.polls.Load(),
			Frames:   ms.frames.Load(),
		}
		if ms.desc != nil {
			d := ms.desc.Clone()
			mi.Descriptor = &d
		}
		if h, ok := ms.module.(transport.CostHinter); ok {
			mi.PollCostHint = h.PollCostHint()
		}
		if sl, ok := ms.module.(transport.SizeLimiter); ok {
			mi.MaxMessage = sl.MaxMessage()
		}
		if c.obs.mode.Load()&obsStats != 0 {
			if h := ms.lat.Stage(obsv.StagePoll); h.Count() >= minObservedPolls {
				mi.ObservedPollCost = h.Mean()
			}
		}
		out = append(out, mi)
	}
	return out
}
