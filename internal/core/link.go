package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/obsv"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// This file implements the communication link: the paper's one concept for
// "a way to reach a context" — a descriptor table, the method selected from
// it, and the communication object bound to that method. Everything that
// sends a frame to another context rides a link: a startpoint holds one per
// target, a forwarder one per destination it relays to, and flow control
// sends its standalone grants over the same per-destination links. The link
// supervises its sends: a failure is reported to the context's health
// registry, the poisoned shared connection is dropped from the context cache
// (so nobody redials into it), selection re-runs against the remaining
// healthy descriptors, and the frame is resent on the replacement.

// link is the sending context's state for reaching one remote context. Its
// methods take the owning context explicitly; a link must only ever be used
// with one.
type link struct {
	context transport.ContextID
	// endpoint is the destination endpoint of a startpoint's link. Frames
	// name their own destination endpoint (outMsg.endpoint), so links that
	// carry other contexts' frames leave it zero.
	endpoint uint64
	// exclude names a relay context this link must not route through: a
	// forwarder never hands a frame back to the relay it arrived from.
	exclude uint64

	// mu serializes (re)binding and recovery. A steady-state send never takes
	// it: senders read cur (link.current) and meet again only at the
	// transport.
	mu sync.Mutex
	// table is the descriptor table selection runs against; nil until a
	// lightweight link resolves it from the owning context's peer tables.
	table *transport.Table
	// fromPeer marks a table resolved from the context's registered peer
	// tables; peerGen is the peer-table generation it was resolved under.
	// When the peer tables move (gossip refreshed or removed one) the cached
	// resolution is dropped and the link re-resolves — or fails with
	// ErrNoTable if the peer left.
	fromPeer bool
	peerGen  uint64
	// shared marks a table this link does not own: the context's published
	// peer table, or a filtered view whose descriptors are that table's. It
	// is read, never edited; ownTable copies it before a caller may edit.
	shared bool
	// manual pins a method chosen via SetMethod: health transitions do not
	// re-select it (send failures with failover enabled still do).
	manual bool

	// cur is the published binding (nil while unbound), written under mu.
	cur atomic.Pointer[binding]
}

// binding is a link bound to one communication object. It is immutable once
// published, apart from the two atomics, so senders use it without a lock.
type binding struct {
	l      *link
	method string
	conn   *sharedConn
	// lat caches the method's stage histograms so the instrumented send path
	// records without a map lookup.
	lat *obsv.StageSet
	// maxMsg is the largest encoded frame the binding accepts in one Send:
	// the module's SizeLimiter bound intersected with the descriptor's
	// max_message attribute (the remote side may accept less than the method
	// could carry). Larger frames are fragmented (bulk.go).
	maxMsg int
	// relay marks a mesh-installed relay route: frames carry the wire relay
	// extension (hop budget + loop suppression).
	relay bool
	// gen is the health-registry generation the binding was last validated
	// under; when the registry moves (a circuit trips or heals) the link
	// re-runs selection on its next send.
	gen atomic.Uint64
	// reportUp marks a fresh communication object whose first successful send
	// should be reported to the health registry (it may be the probe that
	// closes a half-open circuit). Racing senders consume it by CAS, so
	// exactly one reports.
	reportUp atomic.Bool
	// selErr is set on the placeholder ensure returns for a link it could not
	// bind (conn is nil): under failover the frame still gets its chance in
	// the recovery loop once it is encoded.
	selErr error
}

// outMsg is one encoded frame in flight over a link.
type outMsg struct {
	enc []byte
	// off is the payload's offset within enc. Zero marks an opaque frame — one
	// relayed for another context, or a credit frame — which is sent whole or
	// not at all: only the frame's originator may fragment it.
	off int
	// handler, flags and ext are what enc's header was encoded with; fragment
	// headers are rebuilt from them.
	handler  string
	flags    byte
	ext      wire.Ext
	endpoint uint64
	// stage is the latency stage a successful send is recorded under.
	stage obsv.Stage
	// mode is the observability mode sampled once when the send began.
	mode uint32
	// failover lets the link move to another method when the send fails;
	// without it the first failure is reported and returned.
	failover bool
}

func (m *outMsg) trace() obsv.TraceID { return obsv.TraceID(m.ext.Trace) }

// errRouteLoop reports a link whose every route leads back through the relay
// it must avoid.
var errRouteLoop = errors.New("core: only route points back at the previous hop")

// relayHop reports the next-hop relay context a descriptor routes through
// (0 for a direct descriptor). A direct descriptor has no relay attribute
// and is answered without parsing, which would allocate an error each bind.
func relayHop(d transport.Descriptor) uint64 {
	s := d.Attr(transport.AttrRelay)
	if s == "" {
		return 0
	}
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}

// linkTo returns the context's shared link to dest that avoids routing
// through exclude, creating it on first use. Forwarded frames and standalone
// credit frames ride these links.
func (c *Context) linkTo(dest transport.ContextID, exclude uint64) *link {
	k := linkKey{dest, exclude}
	c.mu.RLock()
	l := c.links[k]
	c.mu.RUnlock()
	if l != nil {
		return l
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l = c.links[k]; l == nil {
		l = &link{context: dest, exclude: exclude}
		c.links[k] = l
	}
	return l
}

type linkKey struct {
	dest    transport.ContextID
	exclude uint64
}

// method reports the currently bound method ("" while unbound).
func (l *link) method() string {
	if b := l.cur.Load(); b != nil {
		return b.method
	}
	return ""
}

// liveTable returns the link's descriptor table (nil for a lightweight link
// that has not resolved one yet), for reading only.
func (l *link) liveTable() *transport.Table {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.table
}

// ownTable returns the link's descriptor table for the caller to edit: a
// table resolved from the context's peer tables is first replaced by the
// link's own copy, so an edit steers this link's selection and nothing else.
func (l *link) ownTable() *transport.Table {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.shared {
		l.table, l.shared = l.table.Clone(), false
	}
	return l.table
}

// resolveLocked returns the link's descriptor table, falling back to the
// owning context's registered peer tables for lightweight links. The peer
// table is shared, not copied: the link reads it and never edits it.
func (l *link) resolveLocked(c *Context) (*transport.Table, error) {
	if l.table != nil {
		return l.table, nil
	}
	pg := c.peerGen.Load()
	pt := c.peerTable(l.context)
	if pt == nil {
		return nil, fmt.Errorf("core: context %d: %w", l.context, ErrNoTable)
	}
	if l.exclude != 0 {
		// Route entries name their next hop in the relay attribute; direct
		// entries (no attribute) are always kept. The kept entries go into a
		// new slice: the peer table itself is never filtered in place.
		kept := slices.DeleteFunc(slices.Clone(pt.Entries), func(e transport.Descriptor) bool {
			return relayHop(e) == l.exclude
		})
		if len(kept) == 0 {
			return nil, fmt.Errorf("core: context %d via %d: %w", l.context, l.exclude, errRouteLoop)
		}
		pt = &transport.Table{Entries: kept}
	}
	l.table, l.fromPeer, l.shared, l.peerGen = pt, true, true, pg
	return pt, nil
}

// bindLocked points the link at the communication object for desc, releasing
// the one it held.
func (l *link) bindLocked(c *Context, desc transport.Descriptor, gen uint64, tid obsv.TraceID) (*binding, error) {
	sc, err := c.acquireConn(desc, tid)
	if err != nil {
		return nil, err
	}
	l.unbindLocked(c)
	b := &binding{
		l:      l,
		method: desc.Method,
		conn:   sc,
		lat:    c.stageSetFor(desc.Method),
		maxMsg: c.moduleFor(desc.Method).pairLimit(desc),
		relay:  relayHop(desc) != 0,
	}
	b.gen.Store(gen)
	b.reportUp.Store(true)
	l.cur.Store(b)
	return b, nil
}

// pairLimit is the largest frame a connection of ms to d accepts: the
// module's limit (the wire's for a nil ms), tightened by d's max_message.
func (ms *moduleState) pairLimit(d transport.Descriptor) int {
	limit := wire.MaxFrameLen()
	if ms != nil {
		limit = ms.maxMsg
	}
	if dm := d.MaxMessage(); dm > 0 && dm < limit {
		limit = dm
	}
	return limit
}

// unbindLocked releases the link's communication object, if any.
func (l *link) unbindLocked(c *Context) {
	if b := l.cur.Swap(nil); b != nil {
		c.releaseConn(b.conn)
	}
}

func (l *link) unbind(c *Context) {
	l.mu.Lock()
	l.unbindLocked(c)
	l.mu.Unlock()
}

// selectLocked runs the context's (health-aware) selection policy and binds
// the resulting communication object. tid attributes any dial to the frame
// that triggered selection.
func (l *link) selectLocked(c *Context, tid obsv.TraceID) (*binding, error) {
	table, err := l.resolveLocked(c)
	if err != nil {
		return nil, err
	}
	gen := c.health.Gen()
	desc, err := c.healthSel(c, table)
	if err != nil {
		return nil, err
	}
	b, err := l.bindLocked(c, desc, gen, tid)
	if err != nil {
		// A failed dial is as much a method failure as a failed send: feed
		// the registry so repeated refusals trip the circuit and selection
		// moves on to the next applicable method.
		c.health.reportFailure(desc.Method, l.context, err)
		return nil, err
	}
	return b, nil
}

// setMethod pins the link to a named method, overriding automatic selection.
// The method must appear in the link's descriptor table and be applicable
// from the owning context.
func (l *link) setMethod(c *Context, name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	table, err := l.resolveLocked(c)
	if err != nil {
		return err
	}
	desc, ok := table.Find(name)
	if !ok {
		return fmt.Errorf("core: method %q not in descriptor table for context %d", name, l.context)
	}
	ms := c.moduleFor(name)
	if ms == nil {
		return fmt.Errorf("core: %w: %q", ErrUnknownMethod, name)
	}
	if !ms.module.Applicable(desc) {
		return fmt.Errorf("core: method %q not applicable to context %d: %w", name, l.context, ErrNoApplicableMethod)
	}
	if b := l.cur.Load(); b == nil || b.method != name {
		if _, err := l.bindLocked(c, desc, c.health.Gen(), obsv.TraceID{}); err != nil {
			return err
		}
	}
	l.manual = true
	return nil
}

// ensure returns a binding that is current against the health registry and
// the peer tables: an unbound link is selected and dialed, a bound one whose
// selection went stale — the registry moved, or an open circuit's backoff
// expired and a probe is due — is re-selected. On failure it returns the
// error with an unbound placeholder carrying it.
func (l *link) ensure(c *Context, tid obsv.TraceID) (*binding, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	gen := c.health.Gen()
	probeDue := c.health.probeDue()
	if l.fromPeer && l.peerGen != c.peerGen.Load() && !l.manual {
		// The peer-table set this lightweight link resolved through has moved:
		// drop the cached table and binding so selection re-resolves against
		// the current set. A removed peer now fails with ErrNoTable instead of
		// sending on stale descriptors.
		l.table, l.fromPeer, l.shared = nil, false, false
		l.unbindLocked(c)
	}
	b := l.cur.Load()
	if b == nil {
		nb, err := l.selectLocked(c, tid)
		if err != nil {
			return &binding{l: l, selErr: err}, err
		}
		return nb, nil
	}
	if b.gen.Load() == gen && !probeDue {
		return b, nil
	}
	// Stamp the generation first: a manually pinned link is never re-selected,
	// but it must still read as current, or every send would come back here.
	b.gen.Store(gen)
	if l.manual {
		return b, nil
	}
	table, err := l.resolveLocked(c)
	if err != nil {
		return b, nil // keep the current binding; sends surface the real error
	}
	desc, err := c.healthSel(c, table)
	if err != nil || desc.Method == b.method {
		return b, nil
	}
	// The selector now prefers a different method (a faster one healed, or
	// the current one tripped elsewhere): rebind.
	nb, err := l.bindLocked(c, desc, gen, obsv.TraceID{})
	if err != nil {
		// Dial failed — report it so the registry learns, keep the old conn.
		c.health.reportFailure(desc.Method, l.context, err)
		return b, nil
	}
	return nb, nil
}

// current returns the binding to send a payload of size bytes on: the
// published one — one atomic load and a health-generation compare — unless
// the link is unbound, the registry has moved or a probe is due, in which
// case ensure binds or re-validates it. Every send checks its links this way.
func (l *link) current(c *Context, size int, tid obsv.TraceID) (*binding, error) {
	b := l.cur.Load()
	if b != nil && b.gen.Load() == c.health.Gen() && !c.health.probeDue() {
		return b, nil
	}
	// Selection may run: publish the payload size first so size-aware
	// policies see the message they are selecting for.
	c.selSize.Store(int64(size))
	return l.ensure(c, tid)
}

// deliver sends m over the link's current binding, binding or re-validating
// the link first when it has to.
func (l *link) deliver(c *Context, m *outMsg) error {
	b, err := l.current(c, len(m.enc)-m.off, m.trace())
	if err != nil && !m.failover {
		return err
	}
	return l.send(c, b, m)
}

// send transmits m on binding b — the caller's view of the link, possibly
// stale — and supervises the outcome: a success is timed and, on a fresh
// communication object, reported to the health registry; a failure goes
// through recover.
func (l *link) send(c *Context, b *binding, m *outMsg) error {
	if b.conn == nil {
		return l.recover(c, b, m, b.selErr)
	}
	var t0 time.Time
	if m.mode&obsStats != 0 {
		t0 = time.Now()
	}
	if err := b.transmit(c, m); err != nil {
		return l.recover(c, b, m, err)
	}
	if m.mode&obsStats != 0 {
		d := time.Since(t0)
		if b.lat != nil {
			b.lat.Stage(m.stage).Record(d)
		}
		if tid := m.trace(); m.mode&obsTrace != 0 && !tid.IsZero() {
			c.recordEvent(obsv.Event{
				Trace:    tid,
				Stage:    m.stage,
				Method:   b.method,
				Peer:     uint64(l.context),
				Endpoint: m.endpoint,
				Handler:  m.handler,
				Dur:      d,
			})
		}
	}
	if b.reportUp.CompareAndSwap(true, false) {
		c.health.reportSuccess(b.method, l.context)
	}
	return nil
}

// transmit hands m to the bound communication object, whole if it fits the
// binding's frame limit and as a fragment train (bulk.go) if not. The split
// is per binding, so one multicast frame can go whole down one link and
// fragmented down another from the same encode.
func (b *binding) transmit(c *Context, m *outMsg) error {
	if m.off > 0 && len(m.enc) > b.maxMsg {
		return b.fragment(c, m)
	}
	return b.conn.conn.Send(m.enc)
}

// recover handles a failed (or never-bound) send of m that was attempted on
// binding b. If the link has been rebound since b was read — another sender
// already recovered it — the frame is retried on the current communication
// object WITHOUT charging the health registry: the failure indicts the stale
// view, not the current method. Otherwise the failure is reported and the
// poisoned shared conn invalidated, and, if the message allows failover, the
// loop runs: reselect (the health-aware selector skips tripped methods),
// redial, resend — a message that no longer fits the replacement's frame
// limit re-fragments under a fresh message id — until a communication object
// accepts the frame or the attempt budget is spent. Every method may be
// retried up to the failure threshold (each failure feeds the registry, so a
// persistently dead method trips its circuit and stops being selected), plus
// one last-gasp attempt.
func (l *link) recover(c *Context, b *binding, m *outMsg, cause error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.cur.Load()
	if cur != nil && cur.conn != b.conn {
		err := cur.transmit(c, m)
		if err == nil {
			if cur.reportUp.CompareAndSwap(true, false) {
				c.health.reportSuccess(cur.method, l.context)
			}
			return nil
		}
		// The current binding fails too — charge it below.
		cause = err
	}
	method := b.method
	if cur != nil {
		method = cur.method
		c.health.reportFailure(cur.method, l.context, cause)
		c.invalidateConn(cur.conn)
	}
	if !m.failover {
		return fmt.Errorf("via %s: %w", method, cause)
	}
	table, err := l.resolveLocked(c)
	if err != nil {
		return err
	}
	c.selSize.Store(int64(len(m.enc) - m.off))
	budget := table.Len()*c.health.cfg.failureThreshold + 1
	for attempt := 0; attempt < budget; attempt++ {
		l.unbindLocked(c)
		nb, err := l.selectLocked(c, m.trace())
		if err != nil {
			// A dial refusal was already reported to the registry; keep
			// looping — the next selection skips the method once its circuit
			// trips. Give up only when no method is selectable at all.
			if errors.Is(err, ErrNoApplicableMethod) || errors.Is(err, ErrNoTable) || errors.Is(err, errRouteLoop) {
				return fmt.Errorf("failover exhausted: %w (last send error: %v)", err, cause)
			}
			cause = err
			continue
		}
		c.health.cRedials.Inc()
		if err := nb.transmit(c, m); err != nil {
			cause = err
			c.health.reportFailure(nb.method, l.context, err)
			c.invalidateConn(nb.conn)
			continue
		}
		nb.reportUp.Store(false)
		c.health.reportSuccess(nb.method, l.context)
		c.health.cResends.Inc()
		c.cRSRFailover.Inc()
		return nil
	}
	// Nothing took the frame: leave the link unbound rather than holding the
	// last poisoned communication object open until the next send.
	l.unbindLocked(c)
	return fmt.Errorf("failover attempts exhausted: %w", cause)
}
