package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nexus/internal/buffer"
	"nexus/internal/bufpool"
	"nexus/internal/obsv"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// Startpoint is the sending end of one or more communication links. A
// startpoint bound to several endpoints multicasts; several startpoints bound
// to one endpoint merge their traffic there. Startpoints are copyable: Encode
// packs a startpoint (with its descriptor tables) into a buffer so it can
// travel inside an RSR, and DecodeStartpoint rebuilds it in the receiving
// context, where method selection runs afresh against the local modules.
type Startpoint struct {
	owner *Context

	// links is the link set: an immutable slice that senders read with one
	// atomic load. Only Merge replaces it, copying it under mu; each link
	// publishes its own binding (link.cur), which senders check per link.
	links    atomic.Pointer[[]*link]
	mu       sync.Mutex
	failover atomic.Bool

	// class is the wire.Class every RSR from this startpoint is tagged with
	// (atomic: SetClass may race with concurrent sends). ClassNormal frames
	// carry no class bits, keeping the default send byte-identical to v1.
	class atomic.Uint32
}

// SetClass tags all subsequent RSRs from this startpoint with a traffic
// class. ClassControl traffic bypasses credit windows and dispatch admission
// (and must be reserved for small protocol-critical messages); ClassBulk is
// the first traffic shed under overload; ClassNormal (the default) blocks
// briefly for credit and keeps the configured dispatch policy.
func (sp *Startpoint) SetClass(cls Class) { sp.class.Store(uint32(cls)) }

// Class reports the traffic class RSRs from this startpoint carry.
func (sp *Startpoint) Class() Class { return Class(sp.class.Load()) }

// newStartpoint returns a startpoint owned by c over links, which it keeps.
func newStartpoint(c *Context, links ...*link) *Startpoint {
	sp := &Startpoint{owner: c}
	sp.links.Store(&links)
	return sp
}

// targets returns the link set, which the caller must not modify.
func (sp *Startpoint) targets() []*link {
	if p := sp.links.Load(); p != nil {
		return *p
	}
	return nil
}

// Targets reports the (context, endpoint) pairs this startpoint is linked to.
func (sp *Startpoint) Targets() []struct {
	Context  transport.ContextID
	Endpoint uint64
} {
	targets := sp.targets()
	out := make([]struct {
		Context  transport.ContextID
		Endpoint uint64
	}, len(targets))
	for i, t := range targets {
		out[i].Context = t.context
		out[i].Endpoint = t.endpoint
	}
	return out
}

// Owner returns the context the startpoint currently lives in.
func (sp *Startpoint) Owner() *Context { return sp.owner }

// SetFailover enables automatic re-selection: if a send fails, the startpoint
// removes the failed method from its table and retries with the next
// applicable one (the paper's "switch among alternative communication
// substrates in the event of error").
func (sp *Startpoint) SetFailover(on bool) { sp.failover.Store(on) }

// Merge adds the links of other startpoints to this one, turning it into a
// multicast startpoint. Duplicate links are ignored. Sends in flight keep the
// link set they loaded; the next send sees the merged one. Only sp's lock is
// taken — the others' link sets are read with one load each — so concurrent
// a.Merge(b) and b.Merge(a) cannot deadlock.
func (sp *Startpoint) Merge(others ...*Startpoint) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	links := slices.Clone(sp.targets())
	for _, o := range others {
		if o == sp {
			continue
		}
		for _, t := range o.targets() {
			if slices.ContainsFunc(links, func(l *link) bool {
				return l.context == t.context && l.endpoint == t.endpoint
			}) {
				continue
			}
			nt := &link{context: t.context, endpoint: t.endpoint}
			if table := t.liveTable(); table != nil {
				nt.table = table.Clone()
			}
			links = append(links, nt)
		}
	}
	sp.links.Store(&links)
}

// Table returns the descriptor table for the startpoint's single target
// (panics on multicast startpoints — address those per target via TableFor).
// The returned table is the link's own: reordering it changes subsequent
// automatic selection, which is the paper's manual-control mechanism. A
// table the link resolved from the context's peer tables is copied first,
// so the edit reaches this link only.
func (sp *Startpoint) Table() *transport.Table {
	targets := sp.targets()
	if len(targets) != 1 {
		panic("core: Table on multi-target startpoint; use TableFor")
	}
	return targets[0].ownTable()
}

// TableFor returns the descriptor table for the link to the given context,
// the link's own as Table's is, or nil if no such link (or no table) exists.
func (sp *Startpoint) TableFor(ctx transport.ContextID) *transport.Table {
	for _, t := range sp.targets() {
		if t.context == ctx {
			return t.ownTable()
		}
	}
	return nil
}

// Method reports the currently selected method for the single-target
// startpoint ("" if selection has not happened yet).
func (sp *Startpoint) Method() string {
	targets := sp.targets()
	if len(targets) == 0 {
		return ""
	}
	return targets[0].method()
}

// MethodFor reports the currently selected method for the link to the given
// context ("" if no such link exists or selection has not happened yet). On
// a multicast startpoint each link degrades and heals independently, so
// different targets may be on different methods at the same time.
func (sp *Startpoint) MethodFor(ctx transport.ContextID) string {
	for _, t := range sp.targets() {
		if t.context == ctx {
			return t.method()
		}
	}
	return ""
}

// SetMethod manually selects the communication method for every link of the
// startpoint, overriding automatic selection. The method must appear in each
// link's descriptor table and be applicable from the owning context.
func (sp *Startpoint) SetMethod(name string) error {
	for _, t := range sp.targets() {
		if err := t.setMethod(sp.owner, name); err != nil {
			return err
		}
	}
	return nil
}

// SelectMethod runs automatic selection now (it otherwise runs lazily on the
// first RSR), returning the method chosen for the first link.
func (sp *Startpoint) SelectMethod() (string, error) {
	targets := sp.targets()
	if len(targets) == 0 {
		return "", fmt.Errorf("core: startpoint has no links")
	}
	for _, t := range targets {
		if _, err := t.ensure(sp.owner, obsv.TraceID{}); err != nil {
			return "", err
		}
	}
	return targets[0].method(), nil
}

// RSR performs an asynchronous remote service request on every link of the
// startpoint: the buffer travels to each linked endpoint's context, where the
// named handler is invoked with (endpoint, buffer). RSR returns when the
// frames have been handed to the selected communication methods; it does not
// wait for remote execution.
func (sp *Startpoint) RSR(handler string, b *buffer.Buffer) error {
	return sp.send(handler, b, nil)
}

// RPCSend describes the RPC header extension for one RSR. It is the
// request/response layer's (internal/rpc) hook into the send path: the frame
// carries wire.FlagRPC with the given extension values, is tagged with the
// given class instead of the startpoint's, and — when tracing is on — reuses
// the given trace id so every frame of one call belongs to one span family
// (a zero Trace draws a fresh id as usual).
type RPCSend struct {
	Ext   wire.RPCExt
	Class Class
	Trace obsv.TraceID
}

// RSRWithRPC is RSR for a frame carrying the RPC correlation extension. The
// extension survives failover resends byte-identically (retried requests keep
// their call id) and is carried on every fragment of an oversize frame.
func (sp *Startpoint) RSRWithRPC(handler string, b *buffer.Buffer, rs RPCSend) error {
	return sp.send(handler, b, &rs)
}

// send encodes the RSR frame exactly once into a pooled scratch slice and
// re-addresses it in place per link (wire.PatchDest): header, handler, and
// payload bytes are laid down a single time regardless of fan-out, and the
// payload moves from the buffer into the frame with exactly one copy
// (buffer.EncodeTo). Transports must not retain the frame after Send
// returns (the transport.Conn contract), which is what makes both the
// in-place patching and the scratch recycling sound.
//
// Concurrent sends on one startpoint take no lock: the link set is one atomic
// load, each link's binding is checked as link.deliver checks it
// (link.current), and senders synchronize only at the transport. A link's
// locked slow paths (ensure, recover) run only when its binding is missing or
// stale, a probe is due, or a send fails.
func (sp *Startpoint) send(handler string, b *buffer.Buffer, rs *RPCSend) error {
	owner := sp.owner
	m := outMsg{handler: handler, mode: owner.obs.mode.Load()}
	if m.mode&obsTrace != 0 {
		if rs != nil && rs.Trace != (obsv.TraceID{}) {
			m.ext.Trace = [16]byte(rs.Trace)
		} else {
			m.ext.Trace = [16]byte(owner.NewTraceID())
		}
		m.flags = wire.FlagTrace
	}
	cls := wire.Class(sp.class.Load())
	if rs != nil {
		cls = wire.Class(rs.Class)
		m.ext.RPC = rs.Ext
		m.flags |= wire.FlagRPC
	}
	m.flags |= wire.ClassFlags(cls) // ClassNormal adds no bits: default stays v1
	payloadLen := 1                 // lone format tag for a nil buffer
	if b != nil {
		payloadLen = b.EncodedLen()
	}
	if payloadLen > owner.maxMsg {
		return fmt.Errorf("core: RSR payload of %d bytes exceeds the context's %d-byte message cap: %w",
			payloadLen, owner.maxMsg, transport.ErrTooLarge)
	}
	links := sp.targets()
	if len(links) == 0 {
		return fmt.Errorf("core: RSR on unbound startpoint")
	}
	m.failover = sp.failover.Load()
	// Check every link before encoding: the relay flag and a piggybacked
	// grant depend on the bindings. With failover on, a link that could not
	// be bound still gets the frame: its placeholder takes it through the
	// link's recovery loop. Up to eight bindings live on the stack.
	var stack [8]*binding
	bindings := stack[:0]
	for _, l := range links {
		lb, err := l.current(owner, payloadLen, m.trace())
		if err != nil && !m.failover {
			return err
		}
		bindings = append(bindings, lb)
	}
	for _, lb := range bindings {
		if lb.relay {
			// At least one link rides a mesh-installed relay route: stamp the
			// hop budget so forwarders can decrement it and suppress loops.
			// Via is 0 at the originator; the first relay stamps itself.
			// Direct links in the same multicast harmlessly carry the
			// extension too (the frame is encoded once for all links).
			m.flags |= wire.FlagRelay
			m.ext.Relay = wire.RelayExt{TTL: owner.relayTTL, Via: 0}
			break
		}
	}
	if fl := owner.flow; fl != nil && len(bindings) == 1 && cls != wire.ClassControl {
		// Piggyback a due credit grant for the reverse direction of this
		// link on the outbound frame — the no-extra-frame refill path for
		// request/reply traffic. Single-link only (the frame is encoded
		// once for all links), and only when the credited frame stays under
		// the link's limit: fragmentation strips the credit extension.
		b0 := bindings[0]
		if b0.method != "" && b0.method != "local" &&
			wire.HeaderLenExt(len(handler), m.flags|wire.FlagCredit)+payloadLen <= b0.maxMsg {
			if gb, gf, ok := fl.grantor.GrantIfDue(uint64(links[0].context), b0.method); ok {
				m.flags |= wire.FlagCredit
				m.ext.CreditBytes, m.ext.CreditFrames = gb, gf
				fl.cGrantsSent.Inc()
			}
		}
	}
	m.off = wire.HeaderLenExt(len(handler), m.flags)
	m.enc = bufpool.Get(m.off + payloadLen)
	defer bufpool.Put(m.enc)
	wire.EncodeHeaderExt(m.enc, wire.TypeRSR, m.flags,
		uint64(links[0].context), links[0].endpoint, uint64(owner.id),
		m.ext, handler, payloadLen)
	if b != nil {
		b.EncodeTo(m.enc[m.off:])
	} else {
		m.enc[m.off] = byte(buffer.NativeFormat)
	}
	var errs []error
	for i, lb := range bindings {
		l := links[i]
		m.endpoint = l.endpoint
		wire.PatchDest(m.enc, uint64(l.context), l.endpoint)
		if fl := owner.flow; fl != nil && cls != wire.ClassControl && lb.conn != nil && lb.method != "local" {
			// Charge the message against this link's credit window before it
			// touches the transport. A fragmenting message debits one frame
			// per fragment; the byte debit is the whole encoding either way.
			nframes := uint64(1)
			if len(m.enc) > lb.maxMsg {
				if chunk := lb.maxMsg - wire.HeaderLenExt(len(handler), (m.flags&^wire.FlagCredit)|wire.FlagFrag); chunk > 0 {
					nframes = uint64((len(m.enc) - m.off + chunk - 1) / chunk)
				}
			}
			if !owner.flowAcquire(lb, cls, uint64(len(m.enc)), nframes) {
				owner.shedCounter(cls).Inc()
				errs = append(errs, fmt.Errorf("core: RSR via %s to context %d: %w", lb.method, l.context, ErrNoCredit))
				continue
			}
		}
		if err := l.send(owner, lb, &m); err != nil {
			err = fmt.Errorf("core: RSR to context %d: %w", l.context, err)
			if !m.failover {
				// Without failover the first real send error aborts the RSR.
				return err
			}
			// Degrade per target: the remaining links still get the frame;
			// the caller sees which targets failed.
			errs = append(errs, err)
			continue
		}
		owner.cRSRSent.Inc()
		owner.cBytesSent.Add(uint64(len(m.enc)))
	}
	if errs != nil {
		return errors.Join(errs...)
	}
	if owner.pollOnRSR {
		owner.tryPoll()
	}
	return nil
}

// Close releases the startpoint's communication objects. The links
// themselves (the remote endpoints) are unaffected.
func (sp *Startpoint) Close() {
	for _, t := range sp.targets() {
		t.unbind(sp.owner)
	}
}

// Encode packs the startpoint — links and descriptor tables — into the
// buffer, so it can travel inside an RSR and name its endpoints globally.
func (sp *Startpoint) Encode(b *buffer.Buffer) { sp.encode(b, true) }

// EncodeLite packs the startpoint without descriptor tables. The receiving
// context must know the target contexts' tables already (RegisterPeerTable),
// the optimization the paper applies to links within a parallel computer,
// where a default table is used repeatedly and startpoints must stay small.
func (sp *Startpoint) EncodeLite(b *buffer.Buffer) { sp.encode(b, false) }

func (sp *Startpoint) encode(b *buffer.Buffer, withTables bool) {
	targets := sp.targets()
	b.PutUint16(uint16(len(targets)))
	for _, t := range targets {
		b.PutUint64(uint64(t.context))
		b.PutUint64(t.endpoint)
		if table := t.liveTable(); withTables && table != nil {
			b.PutBool(true)
			table.Encode(b)
		} else {
			b.PutBool(false)
		}
	}
}

// minTargetBytes is the smallest encoded startpoint target: context,
// endpoint and the has-table flag.
const minTargetBytes = 8 + 8 + 1

// DecodeStartpoint rebuilds a startpoint from a buffer in this context.
// Copying a startpoint this way creates fresh communication links: method
// selection runs anew here, against this context's modules, when the
// startpoint is first used.
func (c *Context) DecodeStartpoint(b *buffer.Buffer) (*Startpoint, error) {
	n := int(b.Uint16())
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding startpoint: %w", err)
	}
	// The count is the peer's word; the input bounds what it can hold.
	links := make([]*link, 0, min(n, b.Remaining()/minTargetBytes))
	for i := 0; i < n; i++ {
		t := &link{
			context:  transport.ContextID(b.Uint64()),
			endpoint: b.Uint64(),
		}
		switch flag := b.Byte(); flag {
		case 0:
		case 1:
			table, err := transport.DecodeTable(b)
			if err != nil {
				return nil, fmt.Errorf("core: decoding startpoint target %d: %w", i, err)
			}
			t.table = table
		default:
			return nil, fmt.Errorf("core: decoding startpoint target %d: bad table flag %#x", i, flag)
		}
		if err := b.Err(); err != nil {
			return nil, fmt.Errorf("core: decoding startpoint target %d: %w", i, err)
		}
		links = append(links, t)
	}
	return newStartpoint(c, links...), nil
}

// NewStartpointTo builds a startpoint addressing an explicit (context,
// endpoint) pair, with an optional descriptor table. With a nil table the
// startpoint is lightweight: it resolves through the context's registered
// peer tables on first use, exactly like a startpoint decoded from a
// table-less encoding. The gossip agent uses this to address a peer's
// agent endpoint straight from a registry record, without the peer ever
// shipping a startpoint out of band.
func (c *Context) NewStartpointTo(ctx transport.ContextID, ep uint64, table *transport.Table) *Startpoint {
	t := &link{context: ctx, endpoint: ep}
	if table != nil {
		t.table = table.Clone()
	}
	return newStartpoint(c, t)
}

// TransferStartpoint copies a startpoint into another context through the
// standard encode/decode path, exactly as if it had been carried inside an
// RSR. It is a convenience for single-process machines, where the "transfer"
// needs no network hop.
func TransferStartpoint(sp *Startpoint, dst *Context) (*Startpoint, error) {
	b := buffer.New(256)
	sp.Encode(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		return nil, err
	}
	return dst.DecodeStartpoint(dec)
}

func (sp *Startpoint) String() string {
	targets := sp.targets()
	if len(targets) == 1 {
		t := targets[0]
		return fmt.Sprintf("startpoint(ctx=%d, ep=%d, method=%q)", t.context, t.endpoint, t.method())
	}
	return fmt.Sprintf("startpoint(%d links)", len(targets))
}
