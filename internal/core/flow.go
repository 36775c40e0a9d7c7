package core

import (
	"errors"
	"runtime"
	"time"

	"nexus/internal/bufpool"
	"nexus/internal/flow"
	"nexus/internal/metrics"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// This file wires the credit-based flow control of internal/flow into the
// context: every non-control RSR a startpoint sends debits a per-(peer,
// method) window the receiver advertised, and a sender that runs out either
// blocks briefly (ClassNormal) or sheds (ClassBulk) instead of burying a slow
// receiver. Credit moves in three vehicles: grants piggybacked on normal
// reverse traffic (wire.FlagCredit on an ordinary frame), standalone grant
// frames for one-way links, and probe frames a starved sender emits so a
// receiver whose grants were lost can reconcile and re-grant. Control-class
// traffic — health probes, the credit frames themselves — is exempt in both
// directions: it must survive exactly the overload flow control creates for
// everything else.

// ErrNoCredit reports a send refused (or timed out waiting) for link credit:
// the receiver's advertised window for this link is exhausted. ClassBulk
// sends fail immediately; ClassNormal sends fail after creditBlockTimeout.
var ErrNoCredit = errors.New("core: link credit exhausted")

// Class re-exports the wire traffic classes so callers tag startpoints
// without importing internal/wire.
type Class = wire.Class

// Traffic classes, in shedding order. Under overload ClassBulk is dropped
// first (send side and receive side), ClassNormal blocks for credit, and
// ClassControl bypasses credit and admission entirely.
const (
	ClassNormal  = wire.ClassNormal
	ClassControl = wire.ClassControl
	ClassBulk    = wire.ClassBulk
)

// FlowConfig enables credit-based flow control. The zero value leaves it off.
type FlowConfig struct {
	// Enabled turns credit accounting on for every non-control link of the
	// context (both sending and granting sides).
	Enabled bool

	// Every caller runs with defaultFlow's window and probe interval; the
	// fields exist so this package's overload tests can shrink them. A
	// config that sets any of them is used whole, zeros included, so such a
	// test copies defaultFlow and overrides.

	// windowBytes is the per-(peer, method) byte window this context
	// advertises to senders. A peer can have at most this many bytes (plus
	// one in-flight message) outstanding toward us.
	windowBytes int
	// windowFrames is the matching frame-count window.
	windowFrames int
	// probeInterval rate-limits credit probes from a starved sender, per
	// link.
	probeInterval time.Duration
}

var defaultFlow = FlowConfig{Enabled: true, windowBytes: 1 << 20, windowFrames: 512, probeInterval: 20 * time.Millisecond}

// creditBlockTimeout bounds how long a ClassNormal send waits for credit
// before failing with ErrNoCredit. ClassBulk never waits.
const creditBlockTimeout = 200 * time.Millisecond

// Credit frames (wire.TypeControl + wire.FlagCredit) discriminate grant from
// probe by destination endpoint; the Handler field carries the method name
// the credit applies to.
const (
	creditEPGrant = 0
	creditEPProbe = 1
)

// flowState is the context's credit machinery: the sender-side bank and the
// receiver-side grantor.
type flowState struct {
	cfg     FlowConfig
	bank    *flow.Bank
	grantor *flow.Grantor

	cGrantsSent      *metrics.Counter // flow.grants.sent (standalone + piggybacked)
	cGrantsRecv      *metrics.Counter // flow.grants.recv
	cProbesSent      *metrics.Counter // flow.probes.sent
	cProbesRecv      *metrics.Counter // flow.probes.recv
	cGrantUnroutable *metrics.Counter // flow.grants.unroutable: no reverse route
}

func newFlowState(cfg FlowConfig, stats *metrics.Set) *flowState {
	if cfg == (FlowConfig{Enabled: true}) {
		cfg = defaultFlow
	}
	win := flow.Window{Bytes: uint64(cfg.windowBytes), Frames: uint64(cfg.windowFrames)}
	return &flowState{
		cfg:              cfg,
		bank:             flow.NewBank(win),
		grantor:          flow.NewGrantor(win),
		cGrantsSent:      stats.Counter("flow.grants.sent"),
		cGrantsRecv:      stats.Counter("flow.grants.recv"),
		cProbesSent:      stats.Counter("flow.probes.sent"),
		cProbesRecv:      stats.Counter("flow.probes.recv"),
		cGrantUnroutable: stats.Counter("flow.grants.unroutable"),
	}
}

// shedCounter maps a traffic class to its rsr.shed.* counter.
func (c *Context) shedCounter(cls wire.Class) *metrics.Counter {
	switch cls {
	case wire.ClassControl:
		return c.cShedControl
	case wire.ClassBulk:
		return c.cShedBulk
	}
	return c.cShedNormal
}

// flowAcquire charges one outbound message (bytes across frames wire frames)
// against the credit of the link bound by lb. On exhaustion it probes the
// receiver (rate limited), then either gives up (ClassBulk) or polls for a
// refill until creditBlockTimeout. The poll inside the wait loop matters: a
// single-threaded sender in a request/reply loop is often the only goroutine
// that can detect the very grant it is waiting for.
func (c *Context) flowAcquire(lb *binding, cls wire.Class, bytes, frames uint64) bool {
	fl := c.flow
	peer, method := uint64(lb.l.context), lb.method
	if fl.bank.TryAcquire(peer, method, bytes, frames) {
		return true
	}
	if fl.bank.ShouldProbe(peer, method, time.Now(), fl.cfg.probeInterval) {
		c.sendCreditProbe(lb)
	}
	if cls == wire.ClassBulk {
		return false
	}
	deadline := time.Now().Add(creditBlockTimeout)
	for {
		c.tryPoll()
		if fl.bank.TryAcquire(peer, method, bytes, frames) {
			return true
		}
		now := time.Now()
		if now.After(deadline) {
			return false
		}
		if fl.bank.ShouldProbe(peer, method, now, fl.cfg.probeInterval) {
			c.sendCreditProbe(lb)
		}
		runtime.Gosched()
	}
}

// creditFrame encodes one standalone credit frame (grant or probe, by
// endpoint) into a pooled buffer the caller recycles after sending. The frame
// is control class: it bypasses credit accounting and admission control on
// both sides.
func (c *Context) creditFrame(peer uint64, method string, ep uint64, bytes, frames uint64) outMsg {
	flags := wire.FlagCredit | wire.ClassFlags(wire.ClassControl)
	enc := bufpool.Get(wire.HeaderLenExt(len(method), flags))
	wire.EncodeHeaderExt(enc, wire.TypeControl, flags, peer, ep, uint64(c.id),
		wire.Ext{CreditBytes: bytes, CreditFrames: frames}, method, 0)
	return outMsg{enc: enc, endpoint: ep, mode: c.obs.mode.Load(), failover: true}
}

// sendCreditProbe tells the receiver our cumulative sent totals on the link,
// over the link's own communication object. The receiver reconciles (healing
// credit leaked by dropped frames) and answers with a grant. A failed probe
// is not supervised: the data frame waiting behind it surfaces the failure.
func (c *Context) sendCreditProbe(lb *binding) {
	fl := c.flow
	peer := uint64(lb.l.context)
	sb, sf := fl.bank.Sent(peer, lb.method)
	m := c.creditFrame(peer, lb.method, creditEPProbe, sb, sf)
	if err := lb.transmit(c, &m); err == nil {
		fl.cProbesSent.Inc()
	}
	bufpool.Put(m.enc)
}

// sendCreditGrant advertises the link's refreshed window to the peer with a
// standalone grant frame over the context's link to the peer. The link
// resolves through the peer's registered descriptor table; any applicable
// method carries the grant — the frame itself names the credited method. A
// grant that cannot be delivered is counted and dropped — the sender's probe
// retries will find us again once a table is registered.
func (c *Context) sendCreditGrant(peer uint64, method string) {
	fl := c.flow
	bytes, frames := fl.grantor.Grant(peer, method)
	m := c.creditFrame(peer, method, creditEPGrant, bytes, frames)
	if err := c.linkTo(transport.ContextID(peer), 0).deliver(c, &m); err != nil {
		fl.cGrantUnroutable.Inc()
	} else {
		fl.cGrantsSent.Inc()
	}
	bufpool.Put(m.enc)
}

// handleCreditFrame consumes an inbound standalone credit frame. Runs on the
// delivering goroutine, before RSR accounting — credit frames are protocol
// traffic, not RSRs.
func (c *Context) handleCreditFrame(f *wire.Frame) {
	fl := c.flow
	if fl == nil {
		return
	}
	switch f.DestEndpoint {
	case creditEPProbe:
		fl.cProbesRecv.Inc()
		fl.grantor.Sync(f.SrcContext, f.Handler, f.CreditBytes, f.CreditFrames)
		c.sendCreditGrant(f.SrcContext, f.Handler)
	case creditEPGrant:
		fl.cGrantsRecv.Inc()
		fl.bank.Refill(f.SrcContext, f.Handler, f.CreditBytes, f.CreditFrames)
	}
}

// flowConsume records one delivered frame against the granting ledger and
// sends a refreshed grant when half the window has been consumed. Called on
// every non-control arrival from a remote module, including frames later
// shed at dispatch admission: the sender debited them, so they must be
// accounted or the window leaks.
func (c *Context) flowConsume(ms *moduleState, f *wire.Frame, n int) {
	if c.flow == nil || ms == nil || ms.name == "local" || f.Class() == wire.ClassControl {
		return
	}
	if c.flow.grantor.Consume(f.SrcContext, ms.name, uint64(n), 1) {
		c.sendCreditGrant(f.SrcContext, ms.name)
	}
}
