// Package frag reassembles fragmented bulk messages.
//
// A payload too large for the selected communication method travels as a
// sequence of wire fragments (wire.FlagFrag): every fragment carries the
// message id shared by the whole logical message plus its index and the
// fragment count. The Reassembler collects fragments per (source context,
// message id), tolerating out-of-order arrival and suppressing duplicates,
// and returns the whole payload once every index is present.
//
// Every fragment but the last has the same length, the stride, because the
// sender cuts the payload at fixed offsets. So each fragment is copied once,
// to index×stride in one pooled buffer that becomes the payload; a last
// fragment that arrives before any other is held until the stride is known.
// A fragment that breaks the stride is Invalid.
//
// Buffering unacknowledged partial messages is a memory liability on a
// receiver that cannot trust its peers, so the reassembler enforces three
// budgets: a per-message size cap (MaxMessage), a per-source-context byte
// budget across all of that peer's partial messages (PerPeerBudget, charged
// the whole reserved buffer when it is taken, so one fragment cannot commit
// more memory than the budget allows), and a cap on concurrently open
// partial messages per peer (MaxPartials, with oldest-first eviction so a
// sender's retry is never wedged behind its own abandoned attempt). Partial
// messages whose sender went quiet are garbage collected after a TTL; the
// polling loop drives expiry, and the fast path for "nothing buffered /
// nothing due" is two atomic loads.
package frag

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/bufpool"
)

// Defaults for Config fields left zero.
const (
	// DefaultMaxMessage caps one reassembled message at 16 MiB.
	DefaultMaxMessage = 16 << 20
	// DefaultTTL is how long a partial message may wait for its missing
	// fragments before being dropped.
	DefaultTTL = 10 * time.Second
	// DefaultMaxFragments caps the fragment count of one message. It bounds
	// the index-table allocation a single fragment can force; senders check
	// the same constant so a conforming sender never exceeds it.
	DefaultMaxFragments = 4096
	// DefaultMaxPartials caps concurrently open partial messages per peer.
	DefaultMaxPartials = 64
)

// Config tunes a Reassembler. Zero fields select the defaults above;
// PerPeerBudget defaults to twice MaxMessage.
type Config struct {
	// MaxMessage is the largest reassembled payload accepted, in bytes.
	MaxMessage int
	// PerPeerBudget caps the bytes buffered across all partial messages from
	// one source context.
	PerPeerBudget int
	// TTL is how long a partial message waits for missing fragments,
	// measured from its first fragment.
	TTL time.Duration
	// MaxFragments caps one message's fragment count.
	MaxFragments int
	// MaxPartials caps concurrently open partial messages per peer; opening
	// one more evicts the peer's oldest.
	MaxPartials int
}

func (c Config) withDefaults() Config {
	if c.MaxMessage <= 0 {
		c.MaxMessage = DefaultMaxMessage
	}
	if c.PerPeerBudget <= 0 {
		c.PerPeerBudget = 2 * c.MaxMessage
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.MaxFragments <= 0 {
		c.MaxFragments = DefaultMaxFragments
	}
	if c.MaxPartials <= 0 {
		c.MaxPartials = DefaultMaxPartials
	}
	return c
}

// AddResult classifies what Add did with a fragment.
type AddResult int

const (
	// Stored: the fragment was buffered; the message is still incomplete.
	Stored AddResult = iota
	// Complete: the fragment completed its message; Add returned the payload.
	Complete
	// Duplicate: a fragment with this index was already buffered; dropped.
	Duplicate
	// Invalid: the fragment is self-contradictory (zero or oversized total,
	// index out of range, empty chunk, a total disagreeing with earlier
	// fragments of the same message, a non-last fragment whose length is not
	// the stride, or a last fragment longer than the stride); the fragment is
	// dropped, any existing partial state is kept.
	Invalid
	// OverBudget: reserving the message's buffer (or holding its last
	// fragment) would exceed the per-peer byte budget; the whole partial
	// message was dropped.
	OverBudget
	// TooLarge: the message would exceed MaxMessage; the whole partial
	// message was dropped.
	TooLarge
)

func (r AddResult) String() string {
	switch r {
	case Stored:
		return "stored"
	case Complete:
		return "complete"
	case Duplicate:
		return "duplicate"
	case Invalid:
		return "invalid"
	case OverBudget:
		return "overbudget"
	case TooLarge:
		return "toolarge"
	}
	return "unknown"
}

// key identifies one logical message: ids are only unique per sender.
type key struct {
	src uint64
	msg uint64
}

// message is one partial message's buffered state.
type message struct {
	present  []bool // index → fragment landed
	got      int
	stride   int    // length of every fragment but the last; 0 until one arrives
	buf      []byte // pooled payload buffer, taken when the stride becomes known
	last     []byte // pooled copy of the last fragment while the stride is unknown
	size     int    // payload length, known once the last fragment is in buf
	charged  int    // bytes charged to the peer's budget
	deadline time.Time
}

// Reassembler collects fragments into whole payloads.
type Reassembler struct {
	cfg Config

	mu        sync.Mutex
	msgs      map[key]*message
	peerBytes map[uint64]int
	peerMsgs  map[uint64]int

	// partials mirrors len(msgs) and earliest the soonest deadline (unix
	// nanoseconds, MaxInt64 when idle) so Expire's nothing-to-do fast path —
	// the common case, run on every poll pass — takes no lock.
	partials atomic.Int64
	earliest atomic.Int64
}

// New returns a reassembler with the given budgets.
func New(cfg Config) *Reassembler {
	r := &Reassembler{
		cfg:       cfg.withDefaults(),
		msgs:      make(map[key]*message),
		peerBytes: make(map[uint64]int),
		peerMsgs:  make(map[uint64]int),
	}
	r.earliest.Store(math.MaxInt64)
	return r
}

// Config reports the effective (default-filled) configuration.
func (r *Reassembler) Config() Config { return r.cfg }

// Add buffers one fragment of message msgID from source context src. chunk
// is borrowed: Add copies what it keeps. On Complete the returned payload is
// pooled storage owned by the caller (hand it back with bufpool.Put when
// done). evicted counts partial messages dropped to make room under the
// per-peer partials cap — they are gone for good, exactly as if they had
// expired.
func (r *Reassembler) Add(src, msgID uint64, index, total uint32, chunk []byte, now time.Time) (payload []byte, res AddResult, evicted int) {
	if total == 0 || index >= total || int(total) > r.cfg.MaxFragments || len(chunk) == 0 {
		return nil, Invalid, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key{src: src, msg: msgID}
	m := r.msgs[k]
	if m == nil {
		for r.peerMsgs[src] >= r.cfg.MaxPartials {
			r.evictOldestLocked(src)
			evicted++
		}
		m = &message{
			present:  make([]bool, total),
			deadline: now.Add(r.cfg.TTL),
		}
		r.msgs[k] = m
		r.peerMsgs[src]++
		r.partials.Add(1)
		if dl := m.deadline.UnixNano(); dl < r.earliest.Load() {
			r.earliest.Store(dl)
		}
	} else if len(m.present) != int(total) {
		return nil, Invalid, evicted
	}
	if m.present[index] {
		return nil, Duplicate, evicted
	}
	lastIdx := int(total) - 1
	switch {
	case int(index) < lastIdx && m.stride == 0:
		// The first non-last fragment fixes the stride: reserve the buffer.
		if m.last != nil && len(m.last) > len(chunk) {
			return nil, Invalid, evicted
		}
		tail := 1 // the last fragment carries at least one byte
		if m.last != nil {
			tail = len(m.last)
		}
		// lastIdx×stride + tail > MaxMessage, without overflowing int.
		if tail > r.cfg.MaxMessage || len(chunk) > (r.cfg.MaxMessage-tail)/lastIdx {
			r.dropLocked(k, m)
			return nil, TooLarge, evicted
		}
		// A stride × total buffer, never more than the largest message.
		reserve := min(len(chunk)*int(total), r.cfg.MaxMessage)
		if !r.chargeLocked(k, m, reserve) {
			return nil, OverBudget, evicted
		}
		m.stride = len(chunk)
		m.buf = bufpool.Get(reserve)
		if m.last != nil {
			m.size = copy(m.buf[lastIdx*m.stride:], m.last) + lastIdx*m.stride
			bufpool.Put(m.last)
			m.last = nil
		}
		copy(m.buf[int(index)*m.stride:], chunk)
	case int(index) < lastIdx:
		if len(chunk) != m.stride {
			return nil, Invalid, evicted
		}
		copy(m.buf[int(index)*m.stride:], chunk)
	case m.stride == 0:
		// The last fragment ahead of every other (or a one-fragment
		// message): hold it until the stride is known.
		if len(chunk) > r.cfg.MaxMessage {
			r.dropLocked(k, m)
			return nil, TooLarge, evicted
		}
		if !r.chargeLocked(k, m, len(chunk)) {
			return nil, OverBudget, evicted
		}
		m.last = bufpool.Get(len(chunk))
		copy(m.last, chunk)
	default:
		if len(chunk) > m.stride {
			return nil, Invalid, evicted
		}
		if lastIdx*m.stride+len(chunk) > r.cfg.MaxMessage {
			r.dropLocked(k, m)
			return nil, TooLarge, evicted
		}
		m.size = copy(m.buf[lastIdx*m.stride:], chunk) + lastIdx*m.stride
	}
	m.present[index] = true
	m.got++
	if m.got < int(total) {
		return nil, Stored, evicted
	}
	if m.buf != nil {
		payload, m.buf = m.buf[:m.size], nil
	} else {
		payload, m.last = m.last, nil // a one-fragment message
	}
	r.dropLocked(k, m)
	return payload, Complete, evicted
}

// chargeLocked raises the bytes m holds against its peer's budget to n. If
// that would exceed the budget it drops the whole partial message instead
// and reports false.
func (r *Reassembler) chargeLocked(k key, m *message, n int) bool {
	if r.peerBytes[k.src]-m.charged+n > r.cfg.PerPeerBudget {
		r.dropLocked(k, m)
		return false
	}
	r.peerBytes[k.src] += n - m.charged
	m.charged = n
	return true
}

// dropLocked releases one partial message's storage and accounting.
func (r *Reassembler) dropLocked(k key, m *message) {
	if m.buf != nil {
		bufpool.Put(m.buf)
		m.buf = nil
	}
	if m.last != nil {
		bufpool.Put(m.last)
		m.last = nil
	}
	r.peerBytes[k.src] -= m.charged
	if r.peerBytes[k.src] <= 0 {
		delete(r.peerBytes, k.src)
	}
	if r.peerMsgs[k.src]--; r.peerMsgs[k.src] <= 0 {
		delete(r.peerMsgs, k.src)
	}
	delete(r.msgs, k)
	r.partials.Add(-1)
}

// evictOldestLocked drops the peer's partial message with the soonest
// deadline (i.e. the oldest, since TTL is constant).
func (r *Reassembler) evictOldestLocked(src uint64) {
	var (
		oldestK key
		oldestM *message
	)
	for k, m := range r.msgs {
		if k.src != src {
			continue
		}
		if oldestM == nil || m.deadline.Before(oldestM.deadline) {
			oldestK, oldestM = k, m
		}
	}
	if oldestM != nil {
		r.dropLocked(oldestK, oldestM)
	}
}

// Expire drops every partial message whose deadline has passed and returns
// how many were dropped. With nothing buffered, or nothing due yet, it is
// two atomic loads and no lock — cheap enough for every poll pass.
func (r *Reassembler) Expire(now time.Time) int {
	if r.partials.Load() == 0 {
		return 0
	}
	if now.UnixNano() < r.earliest.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped := 0
	next := int64(math.MaxInt64)
	for k, m := range r.msgs {
		if !m.deadline.After(now) {
			r.dropLocked(k, m)
			dropped++
		} else if dl := m.deadline.UnixNano(); dl < next {
			next = dl
		}
	}
	r.earliest.Store(next)
	return dropped
}

// Partials reports the number of partial messages currently buffered.
func (r *Reassembler) Partials() int { return int(r.partials.Load()) }

// BufferedBytes reports the bytes currently charged to the per-peer budgets:
// every partial message's reserved buffer, or its held last fragment.
func (r *Reassembler) BufferedBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.peerBytes {
		n += b
	}
	return n
}
