// Package local implements the intracontext communication module.
//
// A startpoint whose endpoint lives in the same context communicates by
// direct delivery: Dial returns a connection that hands frames straight to
// the context's sink, with no copying, queueing, or polling. This is the
// method every freshly created startpoint begins with in the paper ("a
// communication object referencing the 'local' communication method").
package local

import (
	"sync/atomic"

	"nexus/internal/transport"
)

// Name is the method name used in descriptors and resource strings.
const Name = "local"

func init() {
	transport.Register(Name, nil, func(transport.Values) (transport.Module, error) { return New(), nil })
}

// Module is the intracontext communication method.
type Module struct {
	env    transport.Env
	inited atomic.Bool
	closed atomic.Bool
}

// New returns an uninitialized local module.
func New() *Module { return &Module{} }

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

// Init records the environment and advertises reachability. The descriptor
// has no attributes: applicability is decided purely by context identity.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	m.env = env
	m.inited.Store(true)
	return &transport.Descriptor{Method: Name, Context: env.Context}, nil
}

// Applicable reports whether remote names this very context.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	return m.inited.Load() && transport.Reaches(transport.Descriptor{Method: Name, Context: m.env.Context}, remote)
}

// Dial returns a direct-delivery connection.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	if !m.inited.Load() {
		return nil, transport.ErrNotInitialized
	}
	if m.closed.Load() {
		return nil, transport.ErrClosed
	}
	if !m.Applicable(remote) {
		return nil, transport.ErrNotApplicable
	}
	return &conn{sink: m.env.Sink, closed: &m.closed}, nil
}

// Poll implements transport.Module. Local delivery is synchronous, so there
// is never pending inbound communication to detect.
func (m *Module) Poll() (int, error) { return 0, nil }

// Close implements transport.Module.
func (m *Module) Close() error {
	m.closed.Store(true)
	return nil
}

type conn struct {
	sink   transport.Sink
	closed *atomic.Bool
}

func (c *conn) Send(frame []byte) error {
	if c.closed.Load() {
		return transport.ErrClosed
	}
	c.sink.Deliver(frame)
	return nil
}

func (c *conn) Method() string { return Name }
func (c *conn) Close() error   { return nil }
