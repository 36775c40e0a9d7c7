package core

import (
	"fmt"
	"time"

	"nexus/internal/bufpool"
	"nexus/internal/frag"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// This file implements the bulk-data path: what happens when one RSR's
// encoded frame is larger than the selected communication method can carry.
// The paper's methods differ not just in latency but in message-size limits —
// a datagram method tops out at the MTU-ish frame its socket accepts, while a
// stream method carries anything — and forcing applications to know each
// method's limit would leak the selection decision the architecture exists to
// hide. Instead the sender splits an oversized frame into wire fragments
// (wire.FlagFrag), each an ordinary frame the method accepts, and the
// receiving context reassembles them (internal/frag) before dispatch. The
// split is per link: one multicast RSR can go whole down a TCP link and
// fragmented down a UDP link from the same encode.

// fragBatchSize is how many fragment frames are encoded and handed to a
// BatchSender connection at once. The gain saturates quickly (a 32-frame
// sendmmsg already amortizes the syscall to ~3% per frame) while the transient
// pooled-buffer footprint stays bounded at fragBatchSize × method frame limit.
const fragBatchSize = 32

// fragment sends one logical RSR as a train of fragment frames over the bound
// communication object, each at most b.maxMsg encoded bytes. The payload is
// the tail of the whole-frame encoding, so fragmentation reuses the single
// payload copy the zero-copy path made. All fragments share a message id
// fresh from the context's counter and the message's trace id, so one traced
// bulk send is one span family at the receiver. Frames are encoded into
// separate pooled buffers and flushed a batch at a time: fragBatchSize on a
// connection with the BatchSender capability (collapsing the train into one
// or two syscalls on datagram methods), one otherwise. Sends borrow the
// frames, so every buffer returns to the pool unconditionally. An error
// aborts the remainder; the link's recovery re-fragments under a new message
// id — the receiver cannot stitch fragments from two attempts together, so
// the abandoned partial expires and delivery stays all-or-nothing.
func (b *binding) fragment(c *Context, m *outMsg) error {
	payload := m.enc[m.off:]
	// A piggybacked credit grant does not survive fragmentation (the
	// fragment headers carry no credit fields); dropping it only delays the
	// grant — cumulative totals make a later one supersede it.
	fragFlags := (m.flags &^ wire.FlagCredit) | wire.FlagFrag
	hdr := wire.HeaderLenExt(len(m.handler), fragFlags)
	chunk := b.maxMsg - hdr
	if chunk <= 0 {
		return fmt.Errorf("core: method frame limit of %d bytes cannot carry fragment headers: %w",
			b.maxMsg, transport.ErrTooLarge)
	}
	total := (len(payload) + chunk - 1) / chunk
	if total > frag.DefaultMaxFragments {
		return fmt.Errorf("core: payload of %d bytes needs %d fragments at frame limit %d (max %d): %w",
			len(payload), total, b.maxMsg, frag.DefaultMaxFragments, transport.ErrTooLarge)
	}
	ext := m.ext
	ext.FragID, ext.FragTotal = c.nextMsgID.Add(1), uint32(total)
	bs, _ := b.conn.conn.(transport.BatchSender)
	batch := 1
	if bs != nil {
		batch = min(fragBatchSize, total)
	}
	frames := make([][]byte, 0, batch)
	for i := 0; i < total; i += batch {
		frames = frames[:0]
		for j := i; j < min(i+batch, total); j++ {
			lo := j * chunk
			hi := min(lo+chunk, len(payload))
			ext.FragIndex = uint32(j)
			buf := bufpool.Get(hdr + hi - lo)
			n := wire.EncodeHeaderExt(buf, wire.TypeRSR, fragFlags,
				uint64(b.l.context), m.endpoint, uint64(c.id), ext, m.handler, hi-lo)
			n += copy(buf[n:], payload[lo:hi])
			frames = append(frames, buf[:n])
		}
		var sent int
		var err error
		if bs != nil {
			sent, err = bs.SendBatch(frames)
		} else if err = b.conn.conn.Send(frames[0]); err == nil {
			sent = 1
		}
		for _, f := range frames {
			bufpool.Put(f)
		}
		// Defensive: a conn must not report more than offered.
		c.cFragTx.Add(uint64(min(sent, len(frames))))
		if err != nil {
			return err
		}
	}
	c.cFragMsgs.Inc()
	return nil
}

// handleFragment buffers one inbound fragment; the fragment that completes
// its message re-enters the delivery path carrying the reassembled payload,
// so handlers only ever observe whole messages. Runs on the polling
// goroutine (via dispatch), like any other delivery.
func (c *Context) handleFragment(ms *moduleState, f *wire.Frame) {
	c.cFragRx.Inc()
	payload, res, evicted := c.frags.Add(f.SrcContext, f.FragID, f.FragIndex, f.FragTotal, f.Payload, time.Now())
	if evicted > 0 {
		c.cFragExpired.Add(uint64(evicted))
	}
	switch res {
	case frag.Stored:
		return
	case frag.Duplicate:
		c.cFragDup.Inc()
		return
	case frag.Invalid:
		c.cFragDropped.Inc()
		return
	case frag.OverBudget, frag.TooLarge:
		c.cFragDropped.Inc()
		// Reassembly refusing a message is receive-side load shedding: account
		// it under the frame's class so overload diagnosis sees one ledger.
		c.shedCounter(f.Class()).Inc()
		c.errlog(fmt.Errorf("core: context %d: dropped partial message %#x from context %d: %s",
			c.id, f.FragID, f.SrcContext, res))
		return
	}
	c.cFragAssembled.Inc()
	// Rebuild the logical frame: same addressing, trace, and handler; the
	// fragment extension gone and the whole payload in place.
	nf := *f
	nf.Flags &^= wire.FlagFrag
	nf.FragID, nf.FragIndex, nf.FragTotal = 0, 0, 0
	nf.Payload = payload
	if c.dispatcher != nil {
		// The dispatch lanes need the frame in one owned buffer; encode the
		// rebuilt frame into pooled storage and hand ownership over rather
		// than paying enqueue's copy on a multi-megabyte payload.
		buf := bufpool.Get(nf.EncodedLen())
		nf.EncodeTo(buf)
		bufpool.Put(payload)
		c.dispatcher.enqueueOwned(ms, &nf, buf)
		return
	}
	c.deliver(ms, &nf)
	bufpool.Put(payload)
}
