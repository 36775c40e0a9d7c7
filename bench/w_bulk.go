package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"nexus"
	"nexus/internal/buffer"
)

// This file holds the two bulk workloads, bulk_tcp and bulk_rudp: one-way
// transfers of large messages with at most two in flight, every byte
// verified by the receiving handler. One goroutine sends and one polls the
// receiver — a large send blocks until the receiver drains the link, so the
// two cannot share a goroutine.

const bulkInFlight = 2

// bulkHeader is the bytes ahead of a message body: sequence number, body
// length, body checksum.
const bulkHeader = 8 + 4 + 8

// bulkImpl is the generated input of a bulk workload: the size deck and one
// seeded body per size, packed once (packing is not what this workload
// measures; the library's own copy of the payload into the frame is).
type bulkImpl struct {
	method string
	deck   []int
	msgs   map[int]*nexus.Buffer
	lat    []uint32
}

func newBulk(env *benchEnv, method string, sizes []int, copies int) *bulkImpl {
	w := &bulkImpl{method: method, deck: sizeDeck(env.seed, sizes, copies), msgs: make(map[int]*nexus.Buffer)}
	for i, size := range sizes {
		body := seededBytes(env.seed, 20+uint64(i), size)
		b := nexus.NewBuffer(bulkHeader + size)
		b.PutUint64(0) // sequence number, patched per send
		b.PutUint32(uint32(size))
		b.PutUint64(checksum(body))
		b.PutRaw(body)
		w.msgs[size] = b
	}
	return w
}

// newBulkTCP mixes sizes below, at and above bufpool's largest class (1 MiB).
func newBulkTCP(env *benchEnv) (workloadImpl, error) {
	return newBulk(env, "tcp", []int{256 << 10, 1 << 20, 4 << 20}, 2), nil
}

// newBulkRUDP sends 1 MiB messages, each split into about 18 fragments.
func newBulkRUDP(env *benchEnv) (workloadImpl, error) {
	return newBulk(env, "rudp", []int{1 << 20}, 1), nil
}

// bulkInst is one live bulk set-up. The sender goroutine owns seq and the
// send side; the receiver goroutine owns next, bad and lat.
type bulkInst struct {
	impl   *bulkImpl
	a, b   *nexus.Context
	sp     *nexus.Startpoint
	tokens chan struct{} // one token per message in flight
	sentAt [bulkInFlight * 2]atomic.Int64

	next      uint64 // sequence number the handler expects
	lastDone  int64  // when the previous message was verified, ns since epoch
	bad       uint64
	delivered uint64 // bytes verified
	lat       []uint32
	rtr       *tracer
	epoch     time.Time
}

func (w *bulkImpl) build() (instance, time.Duration, error) {
	in := &bulkInst{impl: w, tokens: make(chan struct{}, bulkInFlight), epoch: time.Now()}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	methods := []nexus.MethodConfig{{Name: w.method}}
	clock := startSetup()
	var err error
	if in.a, err = nexus.NewContext(nexus.Options{Methods: methods}); err != nil {
		return nil, 0, err
	}
	if in.b, err = nexus.NewContext(nexus.Options{Methods: methods}); err != nil {
		return nil, 0, err
	}
	clock.settle()
	ep := in.b.NewEndpoint(nexus.WithHandler(in.onMessage))
	if in.sp, err = pinnedLink(ep, in.a, w.method); err != nil {
		return nil, 0, err
	}
	// One verified message per size: link dialed, every size class proven.
	out, err := in.run(0, nil)
	if err != nil || out.failed > 0 {
		return nil, 0, fmt.Errorf("first transfers failed (%d of %d): %v", out.failed, out.attempted, err)
	}
	ok = true
	return in, clock.done(), nil
}

// putSeq overwrites the sequence number at the head of a packed message, in
// the byte order the buffer packs with.
func putSeq(msg *nexus.Buffer, seq uint64) {
	if msg.Format() == buffer.BigEndian {
		binary.BigEndian.PutUint64(msg.Bytes(), seq)
	} else {
		binary.LittleEndian.PutUint64(msg.Bytes(), seq)
	}
}

// onMessage is the receiver's handler: check order, length and checksum of
// every byte, then return the message's in-flight token.
func (in *bulkInst) onMessage(_ *nexus.Endpoint, b *nexus.Buffer) {
	tr := in.rtr
	tr.begin(spCoreHandler, in.next)
	seq := b.Uint64()
	size := int(b.Uint32())
	sum := b.Uint64()
	body := b.Raw(size)
	if b.Err() != nil || b.Remaining() != 0 || seq != in.next || checksum(body) != sum {
		in.bad++
	} else {
		in.delivered += uint64(size)
	}
	// Latency of a bulk message is the time it had the link to itself — from
	// its send starting or its predecessor completing, whichever is later,
	// until it is verified — scaled to 1 MiB. Send-to-verified would mostly
	// measure the size of the message queued ahead (two are in flight), and
	// with three sizes in the mix its median would hop between their humps.
	now := int64(time.Since(in.epoch))
	began := max(in.sentAt[seq%uint64(len(in.sentAt))].Load(), in.lastDone)
	in.lastDone = now
	if size > 0 {
		in.lat = append(in.lat, uint32(min((now-began)*(1<<20)/int64(size), int64(^uint32(0)))))
	}
	in.next++
	tr.end()
	<-in.tokens
}

// run sends messages off the deck until d has passed (at least one whole
// deck), then waits for the messages in flight.
func (in *bulkInst) run(d time.Duration, ts *traceSet) (repOut, error) {
	w := in.impl
	tr := ts.get(0)
	in.rtr = ts.get(1)
	if w.lat == nil {
		w.lat = make([]uint32, 0, 1<<16)
	}
	in.lat = w.lat[:0]
	bad0, delivered0, first := in.bad, in.delivered, in.next

	var stop atomic.Bool
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		rtr := in.rtr
		var calls, empty uint32
		seen := in.next
		rtr.begin(spCorePoll, seen)
		for !stop.Load() {
			calls++
			if in.b.Poll() == 0 {
				empty++
				runtime.Gosched()
			}
			if in.next != seen { // a message was delivered: one wait ends, the next begins
				rtr.endCalls(calls, empty)
				calls, empty, seen = 0, 0, in.next
				rtr.begin(spCorePoll, seen)
			}
		}
		rtr.endCalls(calls, empty)
	}()

	var sendErr error
	start := time.Now()
	seq := first
	for i := 0; ; i++ {
		if i >= len(w.deck) && time.Since(start) >= d {
			break
		}
		msg := w.msgs[w.deck[i%len(w.deck)]]
		in.tokens <- struct{}{}
		tr.begin(spOp, seq)
		tr.begin(spBufferPack, seq)
		putSeq(msg, seq)
		tr.end()
		in.sentAt[seq%uint64(len(in.sentAt))].Store(int64(time.Since(in.epoch)))
		tr.begin(spCoreRSR, seq)
		err := in.sp.RSR("", msg)
		tr.end()
		tr.end()
		if err != nil {
			<-in.tokens
			sendErr = fmt.Errorf("bulk RSR of %d bytes over %s: %w", msg.Len(), w.method, err)
			break
		}
		seq++
	}
	// Taking every token waits for the handler to have verified every
	// message in flight.
	for i := 0; i < bulkInFlight; i++ {
		in.tokens <- struct{}{}
	}
	end := time.Now()
	for i := 0; i < bulkInFlight; i++ {
		<-in.tokens
	}
	stop.Store(true)
	<-recvDone
	in.rtr = nil

	out := repOut{
		attempted: seq - first,
		failed:    in.bad - bad0,
		payload:   in.delivered - delivered0,
		elapsed:   end.Sub(start),
		lat:       in.lat,
	}
	w.lat = in.lat
	return out, sendErr
}

func (in *bulkInst) counters() map[string]uint64 { return sumCounters(in.a, in.b) }

func (in *bulkInst) close() {
	if in.a != nil {
		in.a.Close()
	}
	if in.b != nil {
		in.b.Close()
	}
}
