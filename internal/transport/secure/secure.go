// Package secure is a composition demo: a communication module that wraps any
// other registered method in AES-GCM under a static key, pre-shared through
// the "key" parameter. It is not a secure channel. There is no key exchange
// and no rekeying, and open accepts a replayed frame: a frame sealed once
// authenticates every time it is delivered.
//
// The paper's §2 lists security as a method-selection axis: "control
// information might be encrypted outside a site, but not within". Because
// the wrapper is itself an ordinary module, a context can enable both "tcp"
// and "secure" (over tcp) and associate the encrypted method with exactly
// the links that leave the site — per-link security selection with no
// application changes, and a working demonstration of composing protocol
// layers inside the module framework (the x-kernel/Horus-style composition
// discussed in §5).
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"nexus/internal/transport"
)

// Name is the method name used in descriptors and resource strings.
const Name = "secure"

// Errors returned by the secure module.
var (
	// ErrNoKey reports a missing or malformed key parameter.
	ErrNoKey = fmt.Errorf("%w: secure: key must be 16, 24, or 32 hex-encoded bytes", transport.ErrBadParam)
	// ErrDecrypt reports an inbound frame that failed authentication.
	ErrDecrypt = errors.New("secure: frame failed authenticated decryption")
)

func init() {
	// The inner method reads its own parameters from the same set.
	transport.Register(Name, []transport.Param{
		{Key: "key", Default: "", Doc: "hex-encoded 16/24/32-byte AES key shared by both ends (required)"},
		{Key: "inner", Default: "tcp", Doc: "the wrapped method"},
	}, func(v transport.Values) (transport.Module, error) { return New(transport.Default, v) })
}

// Module wraps an inner communication method with authenticated encryption.
type Module struct {
	inner     transport.Module
	innerName string
	aead      cipher.AEAD
	noncePfx  [4]byte
	seq       atomic.Uint64
	dropped   atomic.Uint64
}

// New builds a secure module from its checked parameters v, over an inner
// method from reg configured by the same set. A failed build is a nil module.
func New(reg *transport.Registry, v transport.Values) (transport.Module, error) {
	key, err := hex.DecodeString(v.Str("key"))
	if err != nil || (len(key) != 16 && len(key) != 24 && len(key) != 32) {
		return nil, ErrNoKey
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	innerName := v.Str("inner")
	inner, err := reg.New(innerName, v.Params)
	if err != nil {
		return nil, fmt.Errorf("secure: inner method: %w", err)
	}
	m := &Module{inner: inner, innerName: innerName, aead: aead}
	if _, err := rand.Read(m.noncePfx[:]); err != nil {
		return nil, fmt.Errorf("secure: nonce: %w", err)
	}
	return m, nil
}

// Name implements transport.Module.
func (m *Module) Name() string { return Name }

// Dropped reports how many inbound frames failed authentication (enquiry).
func (m *Module) Dropped() uint64 { return m.dropped.Load() }

// Init initializes the inner method with a decrypting sink and rewrites its
// descriptor to advertise the secure method.
func (m *Module) Init(env transport.Env) (*transport.Descriptor, error) {
	outer := env.Sink
	env.Sink = transport.SinkFunc(func(frame []byte) {
		plain, err := m.open(frame)
		if err != nil {
			m.dropped.Add(1)
			return
		}
		outer.Deliver(plain)
	})
	d, err := m.inner.Init(env)
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, nil
	}
	sd := d.Clone()
	sd.Method = Name
	sd.Attrs["inner"] = m.innerName
	// A size-limited inner method advertises its limit; the encryption
	// envelope eats part of it, so re-advertise the effective bound.
	if sd.Attrs[transport.AttrMaxMessage] != "" {
		sd.Attrs[transport.AttrMaxMessage] = strconv.Itoa(m.MaxMessage())
	}
	return &sd, nil
}

// unwrap converts a secure descriptor back to the inner method's form.
func (m *Module) unwrap(remote transport.Descriptor) (transport.Descriptor, bool) {
	if remote.Method != Name || remote.Attr("inner") != m.innerName {
		return transport.Descriptor{}, false
	}
	d := remote.Clone()
	d.Method = m.innerName
	delete(d.Attrs, "inner")
	return d, true
}

// Applicable defers to the inner method on the unwrapped descriptor.
func (m *Module) Applicable(remote transport.Descriptor) bool {
	d, ok := m.unwrap(remote)
	return ok && m.inner.Applicable(d)
}

// Dial opens an encrypting connection over the inner method.
func (m *Module) Dial(remote transport.Descriptor) (transport.Conn, error) {
	d, ok := m.unwrap(remote)
	if !ok {
		return nil, transport.ErrNotApplicable
	}
	c, err := m.inner.Dial(d)
	if err != nil {
		return nil, err
	}
	return &conn{m: m, inner: c}, nil
}

// sealOverhead is the bytes seal adds to a frame: 12-byte nonce + GCM tag.
func (m *Module) sealOverhead() int { return 12 + m.aead.Overhead() }

// MaxMessage implements transport.SizeLimiter: whatever the inner method
// accepts, minus the encryption envelope (0 — unlimited — if the inner
// method has no limit).
func (m *Module) MaxMessage() int {
	if sl, ok := m.inner.(transport.SizeLimiter); ok {
		if n := sl.MaxMessage(); n > m.sealOverhead() {
			return n - m.sealOverhead()
		}
	}
	return 0
}

// Poll polls the inner method; decryption happens in the sink.
func (m *Module) Poll() (int, error) { return m.inner.Poll() }

// AttachReactor implements transport.Reactive by delegation: the inner
// method's sockets carry the ciphertext, so its readiness is this module's
// readiness. An inner method without pollable fds (e.g. the simulated
// fabric) reports ErrNotReactive and the module stays poll-based.
func (m *Module) AttachReactor(r transport.Readiness) error {
	if ir, ok := m.inner.(transport.Reactive); ok {
		return ir.AttachReactor(r)
	}
	return transport.ErrNotReactive
}

// DetachReactor implements transport.Reactive by delegation.
func (m *Module) DetachReactor() {
	if ir, ok := m.inner.(transport.Reactive); ok {
		ir.DetachReactor()
	}
}

// Close closes the inner method.
func (m *Module) Close() error { return m.inner.Close() }

// seal encrypts and authenticates a frame: 12-byte nonce || ciphertext.
func (m *Module) seal(plain []byte) []byte {
	var nonce [12]byte
	copy(nonce[:4], m.noncePfx[:])
	binary.BigEndian.PutUint64(nonce[4:], m.seq.Add(1))
	out := make([]byte, 12, 12+len(plain)+m.aead.Overhead())
	copy(out, nonce[:])
	return m.aead.Seal(out, nonce[:], plain, nil)
}

// open reverses seal. It keeps no record of the nonces it has seen, so a
// replayed frame opens again.
func (m *Module) open(frame []byte) ([]byte, error) {
	if len(frame) < 12+m.aead.Overhead() {
		return nil, ErrDecrypt
	}
	plain, err := m.aead.Open(nil, frame[:12], frame[12:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return plain, nil
}

type conn struct {
	m     *Module
	inner transport.Conn
}

func (c *conn) Send(frame []byte) error {
	// Reject before encrypting: sealing a frame the inner method will refuse
	// anyway would burn an AES pass over the whole oversized payload.
	if limit := c.m.MaxMessage(); limit > 0 && len(frame) > limit {
		return fmt.Errorf("secure: frame of %d bytes exceeds inner %s limit: %w",
			len(frame), c.m.innerName, transport.ErrTooLarge)
	}
	return c.inner.Send(c.m.seal(frame))
}
func (c *conn) Method() string { return Name }
func (c *conn) Close() error   { return c.inner.Close() }
