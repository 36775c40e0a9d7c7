//go:build !linux

package shm

import "nexus/internal/transport"

// Supported reports whether this build has a real shared-memory transport.
// The mmap/FIFO machinery is Linux-only for now; on other platforms the
// module exists but never advertises a descriptor and never matches one, so
// selection falls through to the next method on the ladder and the facade's
// blank import stays portable.
func Supported() bool { return false }

// Module is the inert non-Linux placeholder.
type Module struct{}

// New returns the stub module; parameters are ignored.
func New(transport.Values) *Module { return &Module{} }

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

// Init reports "cannot receive by this method" (nil descriptor, nil error),
// which is the Module contract's way of opting a context out of a method.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) { return nil, nil }

// Applicable never matches: no platform support, no locality to exploit.
func (m *Module) Applicable(remote transport.Descriptor) bool { return false }

// Dial always refuses.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	return nil, transport.ErrNotApplicable
}

// Poll has nothing to check.
func (m *Module) Poll() (int, error) { return 0, nil }

// Close has nothing to release.
func (m *Module) Close() error { return nil }
