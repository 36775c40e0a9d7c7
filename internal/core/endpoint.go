package core

import "fmt"

// Endpoint is the receiving end of a communication link. Endpoints cannot be
// copied between contexts; they exist only in the context that created them.
// A "local address" — arbitrary user data — may be bound to an endpoint, in
// which case startpoints linked to it act as global pointers to that data.
type Endpoint struct {
	ctx     *Context
	id      uint64
	handler HandlerFunc
	data    any
}

// EndpointOption configures a new endpoint.
type EndpointOption func(*Endpoint)

// WithHandler sets the endpoint's default handler, invoked for RSRs that do
// not name a context-level handler.
func WithHandler(fn HandlerFunc) EndpointOption {
	return func(ep *Endpoint) { ep.handler = fn }
}

// WithData binds a local address (arbitrary data) to the endpoint.
func WithData(v any) EndpointOption {
	return func(ep *Endpoint) { ep.data = v }
}

// NewEndpoint creates an endpoint in the context. The endpoint table is
// copy-on-write (the dispatch fast path resolves it with one atomic load),
// so creation costs one map copy.
func (c *Context) NewEndpoint(opts ...EndpointOption) *Endpoint {
	ep := &Endpoint{ctx: c}
	for _, o := range opts {
		o(ep)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextEP++
	ep.id = c.nextEP
	old := *c.endpoints.Load()
	next := make(map[uint64]*Endpoint, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[ep.id] = ep
	c.endpoints.Store(&next)
	return ep
}

// ID reports the endpoint's identity within its context.
func (ep *Endpoint) ID() uint64 { return ep.id }

// Context returns the owning context.
func (ep *Endpoint) Context() *Context { return ep.ctx }

// Data returns the bound local address, if any.
func (ep *Endpoint) Data() any { return ep.data }

// SetData rebinds the endpoint's local address.
func (ep *Endpoint) SetData(v any) { ep.data = v }

// Close destroys the endpoint; subsequent RSRs addressed to it are dropped
// with ErrUnknownEndpoint (counted as rsr.dropped.unknown_endpoint).
// Deliveries already in flight when Close is called may still reach the
// endpoint's handler; Close does not wait for them, so it is safe to call
// from inside a handler.
func (ep *Endpoint) Close() {
	c := ep.ctx
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.endpoints.Load()
	next := make(map[uint64]*Endpoint, len(old))
	for k, v := range old {
		if k != ep.id {
			next[k] = v
		}
	}
	c.endpoints.Store(&next)
}

// NewStartpoint creates a startpoint linked to this endpoint. The startpoint
// carries the context's current descriptor table and begins with the local
// method selected implicitly (selection is lazy; for a local target the
// local method is what FirstApplicable picks).
func (ep *Endpoint) NewStartpoint() *Startpoint {
	ep.ctx.mu.RLock()
	table := ep.ctx.advertised.Clone()
	ep.ctx.mu.RUnlock()
	return newStartpoint(ep.ctx, &link{context: ep.ctx.id, endpoint: ep.id, table: table})
}

func (ep *Endpoint) String() string {
	return fmt.Sprintf("endpoint(ctx=%d, ep=%d)", ep.ctx.id, ep.id)
}
