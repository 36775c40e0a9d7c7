// Package wire defines the frame format carried by every communication
// module.
//
// A frame is the on-the-wire form of a remote service request: it names the
// destination context and endpoint, the handler to invoke, and carries the
// packed argument buffer. The header is fixed big-endian regardless of the
// payload buffer's format tag, so that any two contexts can parse each
// other's headers. Transports treat frames as opaque byte slices; this
// package is the contract between the core on both sides of a link.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"unsafe"

	"nexus/internal/bufpool"
)

// unsafeString returns a string aliasing b without copying. The result is
// only valid while b's storage is; DecodeInto uses it so that the dispatch
// path's handler lookup costs no allocation on pooled frames.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Frame types.
const (
	// TypeRSR is a remote service request frame.
	TypeRSR = byte(1)
	// TypeForward wraps an RSR frame relayed through a forwarding context;
	// the payload is the original encoded frame.
	TypeForward = byte(2)
	// TypeControl carries core-internal control traffic (e.g. barrier or
	// shutdown coordination in the cluster bootstrap).
	TypeControl = byte(3)
)

const (
	magic   = byte('N')
	version = byte(1)

	// versionExt is the extended header version: identical to v1 except that
	// a flags byte follows the type byte, and flag-selected extensions are
	// appended after the fixed header. The encoder only emits versionExt when
	// at least one extension is present, so plain frames stay byte-identical
	// to v1 and old decoders keep reading them.
	versionExt = byte(2)

	// headerFixed is the size of the fixed part of the v1 header:
	// magic, version, type, destCtx(8), destEP(8), srcCtx(8), handlerLen(2).
	// A versionExt header is one byte longer (the flags byte after type).
	headerFixed = 3 + 8 + 8 + 8 + 2

	// MaxHandlerLen bounds handler-name length on the wire.
	MaxHandlerLen = 1 << 12
	// MaxPayload bounds a frame's payload size (64 MiB); a guard against
	// corrupt length prefixes on stream transports.
	MaxPayload = 64 << 20

	// traceExtLen is the size of the trace extension: a 16-byte trace/span id.
	traceExtLen = 16

	// fragExtLen is the size of the fragment extension: message id (8),
	// fragment index (4), fragment count (4).
	fragExtLen = 8 + 4 + 4

	// creditExtLen is the size of the credit extension: cumulative granted
	// (or probed) byte total (8) and frame total (8).
	creditExtLen = 8 + 8

	// rpcExtLen is the size of the RPC extension: call id (8), kind (1),
	// and the kind-dependent auxiliary word (8).
	rpcExtLen = 8 + 1 + 8

	// relayExtLen is the size of the relay extension: remaining hop budget
	// (1) and the context that last forwarded the frame (8).
	relayExtLen = 1 + 8
)

// Header extension flags (versionExt frames only).
const (
	// FlagTrace marks a 16-byte trace/span id appended after the fixed
	// header, before the handler name.
	FlagTrace = byte(1 << 0)

	// FlagFrag marks a fragment of a larger logical RSR: the extension
	// carries the 8-byte message id shared by all fragments plus this
	// fragment's index and the fragment count. It follows the trace
	// extension (extensions appear in flag-bit order) and precedes the
	// handler name. The payload is one contiguous chunk of the logical
	// payload; the receiving context reassembles chunks in index order.
	FlagFrag = byte(1 << 1)

	// FlagCredit marks a flow-control credit extension: two cumulative
	// uint64 totals — bytes then frames — following the fragment extension
	// (flag-bit order). On a control frame they are a grant or probe (the
	// frame's DestEndpoint discriminates); piggybacked on a normal frame
	// they are a grant for the reverse direction of the carrying link.
	FlagCredit = byte(1 << 2)

	// classShift/ClassMask place the two-bit priority class in the flags
	// byte, bits 3-4. Class bits select no extension — they change frame
	// treatment (dispatch lane, shed policy), not header length — but a
	// nonzero class still forces the versionExt header since v1 has no flags
	// byte. Bit 7 stays reserved and is rejected as unknown.
	classShift = 3
	ClassMask  = byte(3 << classShift)

	// FlagRPC marks a request/response correlation extension: the 8-byte
	// call id shared by every frame of one logical call, a kind byte
	// discriminating request, response, error, cancel, and stream chunk/end,
	// and a kind-dependent 8-byte auxiliary word (absolute deadline in unix
	// nanoseconds on requests, chunk index on stream chunks, chunk count on
	// stream ends). It follows the credit extension (flag-bit order) and
	// precedes the handler name.
	FlagRPC = byte(1 << 5)

	// FlagRelay marks a multi-hop relay extension: a one-byte remaining hop
	// budget (TTL) and the 8-byte id of the context that last forwarded the
	// frame (0 while the frame is still at its originator). Forwarders
	// decrement the TTL and stamp themselves as the via context before
	// relaying; a frame whose TTL would reach zero is dropped, and a relay
	// never selects a next hop equal to the via context, so transient routing
	// loops self-extinguish. It follows the RPC extension (flag-bit order)
	// and precedes the handler name.
	FlagRelay = byte(1 << 6)
)

// RPC extension kinds (RPCExt.Kind). Kind 0 and values beyond RPCMaxKind are
// rejected by the decoder as ErrBadRPC so they can later take on meaning
// without old decoders misreading them.
const (
	// RPCRequest is a call whose argument payload travels in the frame; Aux
	// is the caller's absolute deadline in unix nanoseconds (0 for none).
	RPCRequest = byte(1)
	// RPCResponse is a successful reply; the payload is the result buffer.
	RPCResponse = byte(2)
	// RPCError is a failed reply; the payload carries the error message.
	RPCError = byte(3)
	// RPCCancel tells the callee the caller has given up on the call.
	RPCCancel = byte(4)
	// RPCStreamChunk is one element of a streaming reply; Aux is the chunk's
	// sequence index, so receivers can reorder datagram deliveries.
	RPCStreamChunk = byte(5)
	// RPCStreamEnd terminates a streaming reply; Aux is the chunk count.
	RPCStreamEnd = byte(6)

	// RPCMaxKind is the largest kind the decoder accepts.
	RPCMaxKind = RPCStreamEnd
)

// RPCExt is the decoded FlagRPC extension: one call's correlation id, the
// frame's role within the call, and the kind-dependent auxiliary word.
type RPCExt struct {
	Call uint64
	Kind byte
	Aux  uint64
}

// RelayExt is the decoded FlagRelay extension: the frame's remaining hop
// budget and the context that last forwarded it (0 at the originator).
type RelayExt struct {
	TTL byte
	Via uint64
}

// Class is a frame's priority class, carried in the flags byte (bits 3-4).
// The zero value is ClassNormal, which encodes as no class bits at all — so
// class-less senders produce v1-compatible frames.
type Class byte

const (
	// ClassNormal is ordinary RSR traffic (the default).
	ClassNormal Class = 0
	// ClassControl is core-internal or latency-critical traffic — health
	// probes, credit grants, RPC replies. Control frames bypass credit
	// debiting, use a dedicated dispatch lane, and are never shed.
	ClassControl Class = 1
	// ClassBulk is throughput traffic that overload policies shed first:
	// no-credit sends fail immediately instead of blocking, and receivers
	// drop bulk frames when lane queues or reassembly budgets pass their
	// high-water marks.
	ClassBulk Class = 2

	// class value 3 is reserved; the decoder rejects it as ErrBadFlags.
)

// ClassFlags returns the flag bits encoding the class (0 for ClassNormal).
func ClassFlags(c Class) byte { return byte(c) << classShift }

// FrameClass reports an encoded frame's priority class without a full decode,
// for transports ordering queued frames by class. Anything that is not a
// well-formed versionExt header — v1 frames included — is ClassNormal.
func FrameClass(p []byte) Class {
	if len(p) < 4 || p[0] != magic || p[1] != versionExt {
		return ClassNormal
	}
	return Class((p[3] & ClassMask) >> classShift)
}

// Errors returned by frame decoding.
var (
	ErrShortFrame = errors.New("wire: truncated frame")
	ErrBadMagic   = errors.New("wire: bad magic byte")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrOversize   = errors.New("wire: frame exceeds size limits")
	ErrBadFlags   = errors.New("wire: unknown or empty header flags")
	ErrBadFrag    = errors.New("wire: invalid fragment extension")
	ErrBadRPC     = errors.New("wire: invalid rpc extension")
	ErrBadRelay   = errors.New("wire: invalid relay extension")
)

// Ext holds the value of every header extension. An extension's fields are
// meaningful only while its flag is set in the frame's flags byte: the encoder
// ignores the rest and the decoder leaves them zero.
type Ext struct {
	// Trace is the 16-byte trace/span id of the FlagTrace extension.
	Trace [16]byte
	// FragID identifies the logical message a FlagFrag fragment belongs to;
	// all fragments of one message share it.
	FragID uint64
	// FragIndex is this fragment's position in [0, FragTotal).
	FragIndex uint32
	// FragTotal is the number of fragments in the logical message (≥ 1).
	FragTotal uint32
	// CreditBytes and CreditFrames are the cumulative flow-control totals of
	// the FlagCredit extension. On a grant they are totals the receiver has
	// granted; on a probe, totals the sender has debited.
	CreditBytes  uint64
	CreditFrames uint64
	// RPC is the FlagRPC extension.
	RPC RPCExt
	// Relay is the FlagRelay extension.
	Relay RelayExt
}

// Frame is a decoded message frame.
type Frame struct {
	// Type discriminates RSR, forwarded, and control frames.
	Type byte
	// Flags records which header extensions the frame carries. A frame with
	// any flag set encodes with the extended (versionExt) header; a frame
	// with no flags encodes byte-identically to wire version 1.
	Flags byte
	// DestContext is the context the frame must be delivered to. A
	// forwarding context uses it to route frames not addressed to itself.
	DestContext uint64
	// DestEndpoint identifies the endpoint within the destination context.
	DestEndpoint uint64
	// SrcContext identifies the sending context.
	SrcContext uint64
	// Ext carries the extensions Flags selects.
	Ext
	// Handler names the remote handler to invoke.
	Handler string
	// Payload is the encoded argument buffer (see internal/buffer).
	Payload []byte
}

// HasTrace reports whether the frame carries the trace extension.
func (f *Frame) HasTrace() bool { return f.Flags&FlagTrace != 0 }

// HasFrag reports whether the frame is a fragment of a larger message.
func (f *Frame) HasFrag() bool { return f.Flags&FlagFrag != 0 }

// HasCredit reports whether the frame carries the credit extension.
func (f *Frame) HasCredit() bool { return f.Flags&FlagCredit != 0 }

// HasRPC reports whether the frame carries the RPC extension.
func (f *Frame) HasRPC() bool { return f.Flags&FlagRPC != 0 }

// HasRelay reports whether the frame carries the relay extension.
func (f *Frame) HasRelay() bool { return f.Flags&FlagRelay != 0 }

// Class reports the frame's priority class from its flag bits.
func (f *Frame) Class() Class { return Class((f.Flags & ClassMask) >> classShift) }

// extensions is the header-extension table: one row per extension, in wire
// order, which is ascending flag-bit order. Header sizes, extension offsets,
// the encoder, the decoder, PatchRelay, knownFlags and MaxFrameLen are all
// derived from it; only Ext.put and Ext.get know what lies inside a row's
// bytes. (The codecs are switch arms rather than func-valued columns because
// an *Ext passed through a func value escapes, and DecodeInto's callers keep
// their Frame on the stack.)
var extensions = []struct {
	flag byte
	size int
}{
	{FlagTrace, traceExtLen},
	{FlagFrag, fragExtLen},
	{FlagCredit, creditExtLen},
	{FlagRPC, rpcExtLen},
	{FlagRelay, relayExtLen},
}

// put writes the extension flag selects into dst, which holds at least the
// extension's size.
func (e *Ext) put(flag byte, dst []byte) {
	switch flag {
	case FlagTrace:
		copy(dst, e.Trace[:])
	case FlagFrag:
		binary.BigEndian.PutUint64(dst, e.FragID)
		binary.BigEndian.PutUint32(dst[8:], e.FragIndex)
		binary.BigEndian.PutUint32(dst[12:], e.FragTotal)
	case FlagCredit:
		binary.BigEndian.PutUint64(dst, e.CreditBytes)
		binary.BigEndian.PutUint64(dst[8:], e.CreditFrames)
	case FlagRPC:
		binary.BigEndian.PutUint64(dst, e.RPC.Call)
		dst[8] = e.RPC.Kind
		binary.BigEndian.PutUint64(dst[9:], e.RPC.Aux)
	case FlagRelay:
		putRelay(dst, e.Relay.TTL, e.Relay.Via)
	}
}

// putRelay lays out the relay extension, for put and for PatchRelay, which
// rewrites it on every forwarded frame and has no Ext to hand.
func putRelay(dst []byte, ttl byte, via uint64) {
	dst[0] = ttl
	binary.BigEndian.PutUint64(dst[1:], via)
}

// get reads the extension flag selects from src, which holds at least the
// extension's size, and validates it.
func (e *Ext) get(flag byte, src []byte) error {
	switch flag {
	case FlagTrace:
		copy(e.Trace[:], src)
	case FlagFrag:
		e.FragID = binary.BigEndian.Uint64(src)
		e.FragIndex = binary.BigEndian.Uint32(src[8:])
		e.FragTotal = binary.BigEndian.Uint32(src[12:])
		// A zero fragment count or an index beyond it can only come from a
		// corrupt or hostile encoder; reject rather than hand the reassembler
		// an impossible fragment.
		if e.FragTotal == 0 || e.FragIndex >= e.FragTotal {
			return ErrBadFrag
		}
	case FlagCredit:
		e.CreditBytes = binary.BigEndian.Uint64(src)
		e.CreditFrames = binary.BigEndian.Uint64(src[8:])
	case FlagRPC:
		e.RPC.Call = binary.BigEndian.Uint64(src)
		e.RPC.Kind = src[8]
		e.RPC.Aux = binary.BigEndian.Uint64(src[9:])
		// Kind 0 is never encoded and kinds beyond RPCMaxKind belong to
		// future protocol revisions: reject rather than misinterpret.
		if e.RPC.Kind == 0 || e.RPC.Kind > RPCMaxKind {
			return ErrBadRPC
		}
	case FlagRelay:
		e.Relay.TTL = src[0]
		e.Relay.Via = binary.BigEndian.Uint64(src[1:])
		// A zero hop budget is never encoded: the originator stamps a
		// positive TTL and relays drop a frame instead of forwarding it with
		// TTL 0. Reject rather than let a corrupt frame circulate.
		if e.Relay.TTL == 0 {
			return ErrBadRelay
		}
	}
	return nil
}

// knownFlags is the set of flag bits this decoder understands: the class
// bits and every extension in the table. Unknown flags change the header
// length, so a frame carrying any is undecodable and rejected rather than
// misparsed.
var knownFlags = func() byte {
	known := ClassMask
	for _, x := range extensions {
		known |= x.flag
	}
	return known
}()

// MaxFrameLen is the largest encoded frame any version can produce: extended
// fixed header, every extension, maximal handler name, payload length prefix,
// and maximal payload. Stream and datagram transports use it to clamp corrupt
// length prefixes; a hand-picked slack over MaxPayload undercounts the header
// and can kill a connection carrying a legal frame with a maximal handler
// name.
func MaxFrameLen() int { return maxFrameLen }

var maxFrameLen = HeaderLenExt(MaxHandlerLen, knownFlags) + MaxPayload

// extLen reports the total length of the extensions selected by flags,
// including the flags byte itself (0 for a v1 frame with no flags).
func extLen(flags byte) int {
	if flags == 0 {
		return 0
	}
	n := 1 // the flags byte
	for _, x := range extensions {
		if flags&x.flag != 0 {
			n += x.size
		}
	}
	return n
}

// EncodedLen reports the number of bytes Encode will produce.
func (f *Frame) EncodedLen() int {
	return headerFixed + extLen(f.Flags) + len(f.Handler) + 4 + len(f.Payload)
}

// HeaderLen reports the encoded size of everything before the payload bytes —
// the fixed header, the handler name, and the payload length prefix — for a
// handler name of the given length. An encoded frame with payloadLen payload
// bytes occupies HeaderLen(len(handler)) + payloadLen bytes in total.
func HeaderLen(handlerLen int) int {
	return headerFixed + handlerLen + 4
}

// HeaderLenExt is HeaderLen for a frame carrying the extensions selected by
// flags. HeaderLenExt(n, 0) == HeaderLen(n).
func HeaderLenExt(handlerLen int, flags byte) int {
	return headerFixed + extLen(flags) + handlerLen + 4
}

// EncodeHeader writes a frame header — fixed part, handler name, and payload
// length prefix — into dst, which must have length at least
// HeaderLen(len(handler)). It returns the offset at which the payload's
// payloadLen bytes begin. Together with PatchDest this is the encode-once
// multicast path: the sender lays the header and payload down a single time
// and re-addresses the same bytes for each target.
func EncodeHeader(dst []byte, typ byte, destCtx, destEP, srcCtx uint64, handler string, payloadLen int) int {
	dst[0] = magic
	dst[1] = version
	dst[2] = typ
	binary.BigEndian.PutUint64(dst[3:], destCtx)
	binary.BigEndian.PutUint64(dst[11:], destEP)
	binary.BigEndian.PutUint64(dst[19:], srcCtx)
	binary.BigEndian.PutUint16(dst[27:], uint16(len(handler)))
	n := headerFixed
	n += copy(dst[n:], handler)
	binary.BigEndian.PutUint32(dst[n:], uint32(payloadLen))
	return n + 4
}

// EncodeHeaderExt is EncodeHeader for a frame carrying header extensions:
// flags selects the extensions, ext supplies their values. dst must have
// length at least HeaderLenExt(len(handler), flags). With flags == 0 it
// produces exactly the v1 bytes EncodeHeader would, so callers can route
// every send through it and pay the extension cost only when one is present.
func EncodeHeaderExt(dst []byte, typ, flags byte, destCtx, destEP, srcCtx uint64, ext Ext, handler string, payloadLen int) int {
	if flags == 0 {
		return EncodeHeader(dst, typ, destCtx, destEP, srcCtx, handler, payloadLen)
	}
	dst[0] = magic
	dst[1] = versionExt
	dst[2] = typ
	dst[3] = flags
	binary.BigEndian.PutUint64(dst[4:], destCtx)
	binary.BigEndian.PutUint64(dst[12:], destEP)
	binary.BigEndian.PutUint64(dst[20:], srcCtx)
	binary.BigEndian.PutUint16(dst[28:], uint16(len(handler)))
	n := headerFixed + 1
	for _, x := range extensions {
		if flags&x.flag != 0 {
			ext.put(x.flag, dst[n:])
			n += x.size
		}
	}
	n += copy(dst[n:], handler)
	binary.BigEndian.PutUint32(dst[n:], uint32(payloadLen))
	return n + 4
}

// PatchDest rewrites the destination context and endpoint words of an
// encoded frame in place, leaving every other byte untouched. dst must hold
// at least the fixed header (any slice produced by Encode/EncodeHeader
// qualifies). This is how a multicast startpoint re-addresses a single
// encoded frame per target instead of re-encoding it. Extended headers shift
// the destination words one byte right (the flags byte); the version byte
// says which layout dst uses.
func PatchDest(dst []byte, ctx, ep uint64) {
	off := 3
	if dst[1] == versionExt {
		off = 4
	}
	_ = dst[off+15] // bounds hint: one check instead of two
	binary.BigEndian.PutUint64(dst[off:], ctx)
	binary.BigEndian.PutUint64(dst[off+8:], ep)
}

// PatchRelay rewrites the relay extension of an encoded frame in place,
// leaving every other byte untouched. It reports whether the frame carries
// the extension (a v1 or relay-less frame is left alone). Forwarders use it
// to decrement the hop budget and stamp themselves as the via context on the
// raw relayed bytes, without re-encoding the frame.
func PatchRelay(dst []byte, ttl byte, via uint64) bool {
	if len(dst) < headerFixed+1 || dst[0] != magic || dst[1] != versionExt {
		return false
	}
	flags := dst[3]
	if flags&FlagRelay == 0 {
		return false
	}
	n := headerFixed + 1
	for _, x := range extensions {
		if x.flag == FlagRelay {
			if len(dst) < n+x.size {
				return false
			}
			putRelay(dst[n:], ttl, via)
			return true
		}
		if flags&x.flag != 0 {
			n += x.size
		}
	}
	return false
}

// Encode serializes the frame.
func (f *Frame) Encode() []byte {
	out := make([]byte, f.EncodedLen())
	f.EncodeTo(out)
	return out
}

// EncodeTo serializes the frame into dst, which must have length at least
// EncodedLen. It returns the number of bytes written. A frame with no flags
// encodes as wire version 1; any flag selects the extended header.
func (f *Frame) EncodeTo(dst []byte) int {
	n := EncodeHeaderExt(dst, f.Type, f.Flags,
		f.DestContext, f.DestEndpoint, f.SrcContext, f.Ext, f.Handler, len(f.Payload))
	n += copy(dst[n:], f.Payload)
	return n
}

// Decode parses an encoded frame. The returned frame's Payload aliases p;
// the Handler string is an independent copy.
func Decode(p []byte) (*Frame, error) {
	f := &Frame{}
	if err := DecodeInto(f, p); err != nil {
		return nil, err
	}
	f.Handler = strings.Clone(f.Handler)
	return f, nil
}

// DecodeInto parses an encoded frame into f, which the caller typically keeps
// on its stack: the RSR dispatch path decodes one frame per delivery, and a
// heap-allocated Frame there is pure per-message garbage. The decoded
// Handler and Payload alias p.
func DecodeInto(f *Frame, p []byte) error {
	if len(p) < headerFixed+4 {
		return ErrShortFrame
	}
	if p[0] != magic {
		return ErrBadMagic
	}
	var n, hl int
	f.Ext = Ext{}
	switch p[1] {
	case version:
		// v1 layout, unchanged since the first release: frames from old
		// encoders decode here byte-for-byte as they always did.
		f.Flags = 0
		f.Type = p[2]
		f.DestContext = binary.BigEndian.Uint64(p[3:])
		f.DestEndpoint = binary.BigEndian.Uint64(p[11:])
		f.SrcContext = binary.BigEndian.Uint64(p[19:])
		hl = int(binary.BigEndian.Uint16(p[27:]))
		n = headerFixed
	case versionExt:
		if len(p) < headerFixed+1+4 {
			return ErrShortFrame
		}
		flags := p[3]
		// An extended header with no extensions is never produced by the
		// encoder, and unknown flag bits make the header length ambiguous:
		// reject both rather than misparse.
		if flags == 0 || flags&^knownFlags != 0 {
			return ErrBadFlags
		}
		if flags&ClassMask == ClassMask {
			// Class value 3 is reserved: reject now so it can later select an
			// extension without old decoders misparsing the header.
			return ErrBadFlags
		}
		f.Flags = flags
		f.Type = p[2]
		f.DestContext = binary.BigEndian.Uint64(p[4:])
		f.DestEndpoint = binary.BigEndian.Uint64(p[12:])
		f.SrcContext = binary.BigEndian.Uint64(p[20:])
		hl = int(binary.BigEndian.Uint16(p[28:]))
		n = headerFixed + 1
		for _, x := range extensions {
			if flags&x.flag == 0 {
				continue
			}
			if len(p) < n+x.size+4 {
				return ErrShortFrame
			}
			if err := f.Ext.get(x.flag, p[n:]); err != nil {
				return err
			}
			n += x.size
		}
	default:
		return ErrBadVersion
	}
	if hl > MaxHandlerLen {
		return ErrOversize
	}
	if len(p) < n+hl+4 {
		return ErrShortFrame
	}
	f.Handler = unsafeString(p[n : n+hl])
	n += hl
	pl := int(binary.BigEndian.Uint32(p[n:]))
	if pl > MaxPayload {
		return ErrOversize
	}
	n += 4
	if len(p) < n+pl {
		return ErrShortFrame
	}
	f.Payload = p[n : n+pl]
	if len(p) != n+pl {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(p)-n-pl)
	}
	return nil
}

// ReadFrame reads one length-prefixed encoded frame from a stream, blocking
// until the whole frame has arrived: the reference framing the tests and
// fuzzers hold tcp's poll-mode reassembly to. The returned slice is backed
// by pooled storage: a caller that is done with the frame once it has
// decoded it may hand it back with bufpool.Put; a caller that retains the
// frame simply keeps it and lets the garbage collector reclaim it.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameLen {
		return nil, ErrOversize
	}
	p := bufpool.Get(n)
	if _, err := io.ReadFull(r, p); err != nil {
		bufpool.Put(p)
		return nil, err
	}
	return p, nil
}
