package core

import (
	"errors"
	"fmt"
	"strconv"

	"nexus/internal/obsv"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// DefaultRelayTTL is the hop budget stamped on mesh-routed frames: generous
// against any plausible route depth, small enough that a routing loop
// extinguishes within a handful of relays.
const DefaultRelayTTL = 8

// SetRelayTTL overrides the hop budget stamped on c's mesh-routed frames;
// values outside 1..255 are ignored. It is a function rather than a method so
// the facade, which aliases Context, does not expose it: it exists for the
// cluster layer's tests to build a route longer than the budget, and must be
// called before c sends anything (the send path reads the budget unlocked).
func SetRelayTTL(c *Context, ttl int) {
	if ttl > 0 && ttl < 256 {
		c.relayTTL = byte(ttl)
	}
}

// EnableForwarding turns the context into a forwarding processor: frames that
// arrive addressed to other contexts are re-sent toward their destination
// using the first applicable method from the destination's registered peer
// table (RegisterPeerTable). This is the paper's alternative to multimethod
// polling: one node receives all traffic for an expensive method and relays
// it over the cheap one, so the other nodes never poll the expensive method
// at all.
func (c *Context) EnableForwarding() {
	c.mu.Lock()
	c.forwarder = true
	c.mu.Unlock()
}

// ForwardingEnabled reports whether this context relays misaddressed frames.
func (c *Context) ForwardingEnabled() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.forwarder
}

// forward relays a frame addressed to another context over the context's
// link to the destination, with the supervision every link send gets. The
// frame is re-sent byte-for-byte: the wire header already carries the
// ultimate destination (and, for traced frames, the originator's trace ID,
// which therefore crosses the relay untouched — a trace spans every hop of a
// forwarded path). Like dispatch, forward borrows raw — the relaying Send
// completes before it returns.
func (c *Context) forward(f *wire.Frame, raw []byte) {
	dest := transport.ContextID(f.DestContext)
	if !c.ForwardingEnabled() {
		c.errlog(fmt.Errorf("core: context %d: frame for context %d dropped (forwarding disabled)",
			c.id, dest))
		c.cFwdDropped.Inc()
		return
	}
	m := outMsg{
		enc:      raw,
		handler:  f.Handler,
		endpoint: f.DestEndpoint,
		stage:    obsv.StageRelay,
		mode:     c.obs.mode.Load(),
		failover: true,
	}
	if f.HasTrace() {
		m.ext.Trace = f.Trace
	}
	// Multi-hop mesh frames carry the relay extension: spend one hop of the
	// budget and stamp this context as the via hop before relaying. The next
	// hop may itself be a relay (the route table entry for dest points at
	// it), so forwarding recurses across the mesh until the budget runs out.
	// Loop suppression: the frame rides the link that never routes back
	// through the relay it just came from.
	var via uint64
	if f.HasRelay() {
		if f.Relay.TTL <= 1 {
			c.errlog(fmt.Errorf("core: forwarder %d: frame for context %d dropped (hop budget exhausted, via %d)",
				c.id, dest, f.Relay.Via))
			c.cFwdTTL.Inc()
			c.cFwdDropped.Inc()
			return
		}
		via = f.Relay.Via
		wire.PatchRelay(raw, f.Relay.TTL-1, uint64(c.id))
	}
	if err := c.linkTo(dest, via).deliver(c, &m); err != nil {
		if errors.Is(err, errRouteLoop) {
			c.cFwdLoop.Inc()
		}
		c.errlog(fmt.Errorf("core: forwarder %d: relaying to context %d: %w", c.id, dest, err))
		c.cFwdDropped.Inc()
		return
	}
	c.cFwdRelayed.Inc()
}

// NewRelayRoute builds the peer table that routes frames for dest through a
// relay context: every entry of the relay's own advertised table is cloned
// with Context rewritten to dest (the entry still names the final
// destination, as in RewriteForForwarder) and the relay attribute naming the
// next hop — which is what lets senders stamp the wire relay extension and
// lets forwarders suppress routing loops. The relay's own peer table for
// dest decides the following hop, so multi-hop routes compose out of
// single-hop installs. maxMsg, when positive, caps the route's advertised
// max_message (the narrowest link along the path).
func NewRelayRoute(dest, relay transport.ContextID, relayTable *transport.Table, maxMsg int) *transport.Table {
	out := transport.NewTable()
	rid := strconv.FormatUint(uint64(relay), 10)
	for _, e := range relayTable.Entries {
		ne := e.Clone()
		ne.Context = dest
		ne.Attrs[transport.AttrRelay] = rid
		if maxMsg > 0 {
			if cur := ne.MaxMessage(); cur == 0 || maxMsg < cur {
				ne.Attrs[transport.AttrMaxMessage] = strconv.Itoa(maxMsg)
			}
		}
		out.Add(ne)
	}
	return out
}

// RewriteForForwarder edits a descriptor table so that the given method's
// entry points at the forwarder's address instead of the context's own: any
// sender using that method then reaches the forwarder, which relays inward.
// The entry's Context field is preserved — it still names the final
// destination; only the reachability attributes change. Returns false if the
// table has no entry for the method.
func RewriteForForwarder(t *transport.Table, method string, forwarder transport.Descriptor) bool {
	found := false
	for i, e := range t.Entries {
		if e.Method != method {
			continue
		}
		ne := forwarder.Clone()
		ne.Method = method
		ne.Context = e.Context
		t.Entries[i] = ne
		found = true
	}
	return found
}
