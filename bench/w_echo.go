package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nexus"
	"nexus/internal/transport/shm"
)

// This file holds the two small-message workloads, rtt_tcp and poll_tax.
// Both are a 64-byte RSR echo between two contexts, closed loop with one
// message in flight, and both are driven by ONE goroutine that polls the two
// contexts in lockstep: with a goroutine per context the number measured the
// Go scheduler (±20% run to run on two cores), not the library.

const echoPayload = 64 // bytes per direction: an 8-byte sequence number and a seeded tail

// latCap pre-sizes a latency sample slice so that recording a window's
// samples does not reallocate inside it (only touched pages become resident).
const latCap = 1 << 21

// echoImpl is the generated input and configuration of an echo workload.
type echoImpl struct {
	methods   []nexus.MethodConfig // enabled in both measured contexts
	link      string               // method the measured links are pinned to
	idleLinks int                  // established-but-idle tcp links attached to each context
	tail      []byte               // seeded payload tail
	lat       []uint32
}

// newRTTTCP: the echo travels over loopback tcp while inproc and udp are
// also enabled (and polled), as a context serving mixed peers would be.
func newRTTTCP(env *benchEnv) (workloadImpl, error) {
	return &echoImpl{
		methods: []nexus.MethodConfig{{Name: "inproc"}, {Name: "tcp"}, {Name: "udp"}},
		link:    "tcp",
		tail:    seededBytes(env.seed, 10, echoPayload-8),
	}, nil
}

// newPollTax: the echo travels over the fastest same-host method while tcp,
// udp and rudp are enabled and sixteen idle tcp links are attached — the
// paper's question of what idle expensive methods cost the fast one.
func newPollTax(env *benchEnv) (workloadImpl, error) {
	fast := nexus.MethodConfig{Name: "shm", Params: nexus.Params{"dir": env.tmpDir}}
	if !shm.Supported() {
		fast = nexus.MethodConfig{Name: "inproc"}
		env.note("poll_tax: shm unsupported on this platform, echo runs over inproc")
	}
	return &echoImpl{
		methods:   []nexus.MethodConfig{fast, {Name: "tcp"}, {Name: "udp"}, {Name: "rudp"}},
		link:      fast.Name,
		idleLinks: 16,
		tail:      seededBytes(env.seed, 11, echoPayload-8),
	}, nil
}

// echoInst is one live echo set-up. All fields are touched by the driving
// goroutine only: handlers run inside the Poll calls it makes.
type echoInst struct {
	impl       *echoImpl
	a, b       *nexus.Context
	parked     []*nexus.Context
	toB, toA   *nexus.Startpoint
	req, reply *nexus.Buffer
	seq        uint64 // sequence number of the op in flight
	gotB, gotA uint64 // last sequence number each side's handler accepted
	bad        uint64 // payloads that arrived wrong
	idleA      int
	idleB      int
	tr         *tracer
	rsrEnd     int64 // when the last RSR returned, for detect wait
}

func (w *echoImpl) build() (instance, time.Duration, error) {
	in := &echoInst{impl: w, req: nexus.NewBuffer(echoPayload), reply: nexus.NewBuffer(echoPayload)}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	clock := startSetup()
	var err error
	if in.a, err = nexus.NewContext(nexus.Options{Methods: w.methods}); err != nil {
		return nil, 0, err
	}
	if in.b, err = nexus.NewContext(nexus.Options{Methods: w.methods}); err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.idleLinks; i++ {
		p, err := nexus.NewContext(nexus.Options{Methods: []nexus.MethodConfig{{Name: "tcp"}}})
		if err != nil {
			return nil, 0, err
		}
		in.parked = append(in.parked, p)
	}
	clock.settle()
	epA := in.a.NewEndpoint(nexus.WithHandler(in.onReply))
	epB := in.b.NewEndpoint(nexus.WithHandler(in.onRequest))
	if in.toB, err = pinnedLink(epB, in.a, w.link); err != nil {
		return nil, 0, err
	}
	if in.toA, err = pinnedLink(epA, in.b, w.link); err != nil {
		return nil, 0, err
	}
	if w.idleLinks > 0 {
		idleA := in.a.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { in.idleA++ }))
		idleB := in.b.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { in.idleB++ }))
		for _, p := range in.parked {
			for _, ep := range []*nexus.Endpoint{idleA, idleB} {
				sp, err := pinnedLink(ep, p, "tcp")
				if err != nil {
					return nil, 0, err
				}
				if err := sp.RSR("", nil); err != nil {
					return nil, 0, fmt.Errorf("attaching idle link: %w", err)
				}
			}
		}
		attached := func() bool { return in.idleA == w.idleLinks && in.idleB == w.idleLinks }
		deadline := time.Now().Add(10 * time.Second)
		for !attached() {
			if in.a.Poll()+in.b.Poll() == 0 {
				runtime.Gosched()
			}
			if time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("idle links: %d/%d and %d/%d attached after 10s", in.idleA, w.idleLinks, in.idleB, w.idleLinks)
			}
		}
	}
	// One verified round trip: links dialed, both directions proven.
	if out, err := in.run(0, nil); err != nil || out.failed > 0 {
		return nil, 0, fmt.Errorf("first round trip failed: %v", err)
	}
	ok = true
	return in, clock.done(), nil
}

// pinnedLink carries a startpoint for ep into ctx and pins its method, so
// the measured link does not depend on which methods happen to be applicable.
func pinnedLink(ep *nexus.Endpoint, ctx *nexus.Context, method string) (*nexus.Startpoint, error) {
	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), ctx)
	if err != nil {
		return nil, err
	}
	if err := sp.SetMethod(method); err != nil {
		return nil, err
	}
	return sp, nil
}

// onRequest is B's handler: verify the request, echo it back.
func (in *echoInst) onRequest(_ *nexus.Endpoint, b *nexus.Buffer) {
	tr := in.tr
	tr.begin(spCoreHandler, in.seq)
	if tr != nil {
		tr.addWait(spCoreHandler, tr.now()-in.rsrEnd)
	}
	seq := b.Uint64()
	tail := b.Raw(len(in.impl.tail))
	if b.Err() != nil || seq != in.seq || !bytes.Equal(tail, in.impl.tail) {
		in.bad++
	}
	// The request buffer is borrowed from the frame: copy it into the reply.
	in.reply.Reset()
	in.reply.PutUint64(seq)
	in.reply.PutRaw(tail)
	tr.begin(spCoreRSR, in.seq)
	err := in.toA.RSR("", in.reply)
	tr.end()
	if tr != nil {
		in.rsrEnd = tr.now()
	}
	if err != nil {
		in.bad++
	}
	in.gotB = seq
	tr.end()
}

// onReply is A's handler: verify the echo.
func (in *echoInst) onReply(_ *nexus.Endpoint, b *nexus.Buffer) {
	tr := in.tr
	tr.begin(spCoreHandler, in.seq)
	if tr != nil {
		tr.addWait(spCoreHandler, tr.now()-in.rsrEnd)
	}
	seq := b.Uint64()
	tail := b.Raw(len(in.impl.tail))
	if b.Err() != nil || seq != in.seq || !bytes.Equal(tail, in.impl.tail) {
		in.bad++
	}
	in.gotA = seq
	tr.end()
}

// await polls ctx until its handler has accepted the op in flight.
func (in *echoInst) await(ctx *nexus.Context, got *uint64) {
	tr := in.tr
	tr.begin(spCorePoll, in.seq)
	var calls, empty uint32
	for *got != in.seq {
		calls++
		if ctx.Poll() == 0 {
			empty++
			runtime.Gosched()
		}
	}
	tr.endCalls(calls, empty)
}

// run performs round trips until d has passed (always at least one).
func (in *echoInst) run(d time.Duration, ts *traceSet) (repOut, error) {
	w := in.impl
	tr := ts.get(0)
	in.tr = tr
	if w.lat == nil {
		w.lat = make([]uint32, 0, latCap)
	}
	lat := w.lat[:0]
	var out repOut
	start := time.Now()
	prev := start
	for {
		in.seq++
		bad0 := in.bad
		tr.begin(spOp, in.seq)
		tr.begin(spBufferPack, in.seq)
		in.req.Reset()
		in.req.PutUint64(in.seq)
		in.req.PutRaw(w.tail)
		tr.end()
		tr.begin(spCoreRSR, in.seq)
		err := in.toB.RSR("", in.req)
		tr.end()
		if err != nil {
			return out, fmt.Errorf("echo RSR: %w", err)
		}
		if tr != nil {
			in.rsrEnd = tr.now()
		}
		in.await(in.b, &in.gotB)
		in.await(in.a, &in.gotA)
		tr.end()
		now := time.Now()
		out.attempted++
		if in.bad != bad0 {
			out.failed++
		} else {
			out.payload += 2 * echoPayload
		}
		lat = append(lat, uint32(min(now.Sub(prev), time.Duration(^uint32(0)))))
		prev = now
		if now.Sub(start) >= d {
			break
		}
	}
	out.elapsed = prev.Sub(start)
	w.lat, out.lat = lat, lat
	in.tr = nil
	return out, nil
}

func (in *echoInst) counters() map[string]uint64 { return sumCounters(in.a, in.b) }

func (in *echoInst) close() {
	for _, c := range in.parked {
		c.Close()
	}
	if in.a != nil {
		in.a.Close()
	}
	if in.b != nil {
		in.b.Close()
	}
}

// sumCounters adds up the enquiry counters of several contexts.
func sumCounters(ctxs ...*nexus.Context) map[string]uint64 {
	sum := make(map[string]uint64)
	for _, c := range ctxs {
		if c == nil {
			continue
		}
		for k, v := range c.Stats().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}
