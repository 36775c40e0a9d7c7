// Package names implements a small name service for communication links:
// startpoints registered under string names, resolvable from any context
// that can reach the server.
//
// The paper closes with "further work is also required on the
// representation, discovery, and use of configuration data". This package is
// that mechanism in its simplest useful form, and a demonstration of the
// architecture eating its own dog food: the service's protocol is three RPC
// methods (names.register, names.resolve, names.list) on internal/rpc, which
// is itself built on RSRs; the names map to encoded startpoints (which carry
// their own descriptor tables), and a resolved startpoint works immediately
// in the resolving context because method selection re-runs there.
// Registering a name therefore publishes not just *where* an endpoint is but
// *every way to reach it*, and resolution composes with manual method control
// like any other received startpoint.
package names

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/rpc"
)

// RPC method names of the service.
const (
	methodRegister = "names.register"
	methodResolve  = "names.resolve"
	methodList     = "names.list"
)

// Reply status codes: the first byte of every reply.
const (
	statusOK       = 0
	statusNotFound = 1
	statusExists   = 2
)

// Errors returned by client operations.
var (
	// ErrNotFound reports resolution of an unregistered name.
	ErrNotFound = errors.New("names: name not found")
	// ErrExists reports registration of an already-taken name.
	ErrExists = errors.New("names: name already registered")
	// ErrTimeout reports a request the server did not answer in time. It
	// wraps the stack-wide deadline sentinel, so errors.Is matches it
	// against core.ErrDeadline and context.DeadlineExceeded too.
	ErrTimeout = fmt.Errorf("names: request timed out: %w", core.ErrDeadline)
)

// Server is a name service hosted in a context. A context hosts at most one
// server: its methods are registered by name, so a second server in the same
// context would take them over.
type Server struct {
	ep *core.Endpoint

	mu      sync.Mutex
	entries map[string][]byte // name -> encoded startpoint
}

// NewServer installs a name service in the context (attaching the RPC layer
// if it is not already) and returns it. The server answers requests whenever
// the hosting context polls.
func NewServer(ctx *core.Context) *Server {
	s := &Server{ep: ctx.NewEndpoint(), entries: make(map[string][]byte)}
	r := rpc.Enable(ctx)
	r.Register(methodRegister, s.onRegister)
	r.Register(methodResolve, s.onResolve)
	r.Register(methodList, s.onList)
	return s
}

// Startpoint returns a startpoint for the service, to hand to clients.
func (s *Server) Startpoint() *core.Startpoint { return s.ep.NewStartpoint() }

// Len reports the number of registered names.
func (s *Server) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// malformed reports a request whose name is empty or whose payload ended
// early.
func malformed(q *rpc.Request, name string) error {
	if err := q.Payload.Err(); err != nil {
		return fmt.Errorf("names: truncated %s request: %w", q.Method, err)
	}
	if name == "" {
		return fmt.Errorf("names: empty name in %s request", q.Method)
	}
	return nil
}

// onRegister: [name string][encoded target startpoint] -> [status]
func (s *Server) onRegister(q *rpc.Request, rp *rpc.Responder) {
	name := q.Payload.String()
	target := q.Payload.BytesValue()
	if err := malformed(q, name); err != nil {
		_ = rp.Error(err) // unsent: the caller's deadline is the recovery
		return
	}
	out := buffer.New(1)
	s.mu.Lock()
	if _, dup := s.entries[name]; dup {
		out.PutByte(statusExists)
	} else {
		s.entries[name] = target
		out.PutByte(statusOK)
	}
	s.mu.Unlock()
	_ = rp.Reply(out) // unsent: the caller's deadline is the recovery
}

// onResolve: [name string] -> [status][encoded startpoint if found]
func (s *Server) onResolve(q *rpc.Request, rp *rpc.Responder) {
	name := q.Payload.String()
	if err := malformed(q, name); err != nil {
		_ = rp.Error(err) // unsent: the caller's deadline is the recovery
		return
	}
	s.mu.Lock()
	enc, ok := s.entries[name]
	s.mu.Unlock()
	out := buffer.New(len(enc) + 8)
	if ok {
		out.PutByte(statusOK)
		out.PutBytes(enc)
	} else {
		out.PutByte(statusNotFound)
	}
	_ = rp.Reply(out) // unsent: the caller's deadline is the recovery
}

// onList: [] -> [status][count uint32][name string]...
func (s *Server) onList(q *rpc.Request, rp *rpc.Responder) {
	s.mu.Lock()
	out := buffer.New(64)
	out.PutByte(statusOK)
	out.PutUint32(uint32(len(s.entries)))
	for n := range s.entries {
		out.PutString(n)
	}
	s.mu.Unlock()
	_ = rp.Reply(out) // unsent: the caller's deadline is the recovery
}

// Client talks to a name server from another context.
type Client struct {
	ctx     *core.Context
	rpc     *rpc.RPC
	server  *core.Startpoint
	timeout time.Duration
}

// NewClient builds a client in ctx (attaching the RPC layer if it is not
// already) for the server reachable via the given startpoint (typically
// obtained out of band or from a parent context). Any number of clients may
// share a context.
func NewClient(ctx *core.Context, server *core.Startpoint) *Client {
	return &Client{ctx: ctx, rpc: rpc.Enable(ctx), server: server, timeout: 10 * time.Second}
}

// SetTimeout adjusts the per-request timeout.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Register publishes a startpoint under the given name.
func (c *Client) Register(name string, sp *core.Startpoint) error {
	enc := buffer.New(256)
	sp.Encode(enc)
	req := buffer.New(enc.Len() + len(name) + 16)
	req.PutString(name)
	req.PutEncoded(enc) // keep the format tag: the resolver re-decodes it
	_, status, err := c.call(methodRegister, req)
	if err != nil {
		return err
	}
	switch status {
	case statusOK:
		return nil
	case statusExists:
		return fmt.Errorf("%w: %q", ErrExists, name)
	default:
		return fmt.Errorf("names: register %q failed (status %d)", name, status)
	}
}

// Resolve returns a startpoint for the named link, usable immediately in the
// client's context.
func (c *Client) Resolve(name string) (*core.Startpoint, error) {
	req := buffer.New(len(name) + 8)
	req.PutString(name)
	reply, status, err := c.call(methodResolve, req)
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	dec, err := buffer.FromBytes(reply.BytesValue())
	if err != nil {
		return nil, fmt.Errorf("names: corrupt resolve reply: %w", err)
	}
	return c.ctx.DecodeStartpoint(dec)
}

// List returns all registered names.
func (c *Client) List() ([]string, error) {
	reply, status, err := c.call(methodList, nil)
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("names: list failed (status %d)", status)
	}
	var out []string
	for n := reply.Uint32(); n > 0 && reply.Err() == nil; n-- {
		out = append(out, reply.String())
	}
	if err := reply.Err(); err != nil {
		return nil, fmt.Errorf("names: corrupt list reply: %w", err)
	}
	return out, nil
}

// call runs one request to completion and returns the reply positioned after
// its status byte.
func (c *Client) call(method string, req *buffer.Buffer) (*buffer.Buffer, byte, error) {
	f, err := c.rpc.Call(c.server, method, req, rpc.CallOptions{Timeout: c.timeout})
	if err != nil {
		return nil, 0, err
	}
	reply, err := f.Await()
	if errors.Is(err, core.ErrDeadline) {
		return nil, 0, fmt.Errorf("%w (%s)", ErrTimeout, method)
	}
	if err != nil {
		return nil, 0, err
	}
	status := reply.Byte()
	return reply, status, reply.Err()
}
