package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nexus"
	"nexus/internal/buffer"
	"nexus/internal/bufpool"
	"nexus/internal/flow"
	"nexus/internal/frag"
	"nexus/internal/names"
	"nexus/internal/reactor"
	"nexus/internal/transport"
	"nexus/internal/transport/shm"
	"nexus/internal/wire"
)

// This file holds the layer probes: direct calls into one package's public
// functions, sized like the workload each probe is attached to. A probe
// reports the median over many timed batches. One whose method is not
// supported on this platform is reported as skipped with the reason.

// probeFunc measures one per-layer metric within about the given budget.
// A non-empty skip means the probe cannot run here.
type probeFunc func(env *benchEnv, budget time.Duration) (value float64, skip string, err error)

// probeBudgetMax caps the time one probe gets.
const probeBudgetMax = 250 * time.Millisecond

var probes = map[string]probeFunc{
	"wire.encode_ns":          probeWireEncode,
	"wire.decode_ns":          probeWireDecode,
	"buffer.encode_ns_64":     probeBufferEncode,
	"buffer.float64s_mb_s":    probeBufferFloat64s,
	"bufpool.getput_ns_64":    func(_ *benchEnv, b time.Duration) (float64, string, error) { return probeBufpool(b, 64) },
	"bufpool.getput_ns_1m":    func(_ *benchEnv, b time.Duration) (float64, string, error) { return probeBufpool(b, 1<<20) },
	"bufpool.oversize_ns":     func(_ *benchEnv, b time.Duration) (float64, string, error) { return probeBufpool(b, 2<<20) },
	"core.select_ns":          probeCoreSelect,
	"core.sp_transfer_ns":     probeCoreTransfer,
	"core.multicast_rsr_ns_8": probeCoreMulticast,
	"inproc.rtt_ns":           moduleRTT("inproc"),
	"shm.rtt_ns":              moduleRTT("shm"),
	"tcp.rtt_ns":              moduleRTT("tcp"),
	"udp.rtt_ns":              moduleRTT("udp"),
	"rudp.rtt_ns":             moduleRTT("rudp"),
	"shm.bulk_mb_s":           moduleBulk("shm", 256<<10),
	"tcp.bulk_mb_s":           moduleBulk("tcp", 1<<20),
	"rudp.bulk_mb_s":          moduleBulk("rudp", 58<<10),
	"tcp.poll_idle_ns":        probeTCPPollIdle,
	"tcp.dial_us":             probeTCPDial,
	"udp.burst_msgs_s":        probeUDPBurst,
	"reactor.wake_us":         probeReactorWake,
	"secure.seal_open_ns_64":  probeSecureSmall,
	"secure.seal_open_mb_s":   probeSecureBulk,
	"frag.add_ns_per_frag":    func(_ *benchEnv, b time.Duration) (float64, string, error) { return probeFrag(b, false) },
	"frag.reassemble_mb_s":    func(_ *benchEnv, b time.Duration) (float64, string, error) { return probeFrag(b, true) },
	"flow.acquire_ns":         probeFlowAcquire,
	"flow.consume_grant_ns":   probeFlowConsume,
	"names.merge_ns":          probeNamesMerge,
	"names.delta_ns":          probeNamesDelta,
	"names.digest_ns":         probeNamesDigest,
	"rpc.local_call_ns":       probeRPCLocal,
	"mpi.pingpong_ns":         probeMPIPingPong,
	"mpi.allreduce_us_4":      probeMPIAllreduce,
}

// sinkVar keeps results alive so the compiler cannot drop a probed call.
var sinkVar int

// perOp times batches of fn for about budget and returns the median
// nanoseconds per operation. fn(n) performs n operations and returns how
// long the part that counts took; the batch size grows until a batch is long
// enough for the clock.
func perOp(budget time.Duration, fn func(n int) time.Duration) float64 {
	const minBatch = 200 * time.Microsecond
	batch := 1
	var samples []float64
	start := time.Now()
	for {
		dt := fn(batch)
		if dt < minBatch && batch < 1<<24 {
			batch *= 2
			continue
		}
		samples = append(samples, float64(dt)/float64(batch))
		if time.Since(start) >= budget && len(samples) >= 5 {
			return median(samples)
		}
	}
}

// timed adapts a plain loop body to perOp.
func timed(body func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		body(n)
		return time.Since(t0)
	}
}

// mbPerS converts nanoseconds per op of the given size to MB/s.
func mbPerS(nsPerOp float64, bytes int) float64 { return float64(bytes) / 1e6 / (nsPerOp / 1e9) }

func probeWireEncode(_ *benchEnv, budget time.Duration) (float64, string, error) {
	dst := make([]byte, wire.HeaderLen(0)+echoPayload+1)
	return perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			sinkVar += wire.EncodeHeader(dst, wire.TypeRSR, 2, 1, uint64(i), "", echoPayload+1)
		}
	})), "", nil
}

func probeWireDecode(_ *benchEnv, budget time.Duration) (float64, string, error) {
	enc := (&wire.Frame{Type: wire.TypeRSR, DestContext: 2, DestEndpoint: 1, SrcContext: 1,
		Payload: make([]byte, echoPayload+1)}).Encode()
	var f wire.Frame
	var derr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			if err := wire.DecodeInto(&f, enc); err != nil {
				derr = err
			}
		}
	}))
	return v, "", derr
}

func probeBufferEncode(_ *benchEnv, budget time.Duration) (float64, string, error) {
	b := buffer.New(echoPayload)
	b.PutRaw(make([]byte, echoPayload))
	dst := make([]byte, b.EncodedLen())
	return perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			sinkVar += b.EncodeTo(dst)
		}
	})), "", nil
}

func probeBufferFloat64s(_ *benchEnv, budget time.Duration) (float64, string, error) {
	const count = 32 << 10 // 256 KiB of float64s, the smallest bulk_tcp message
	v := make([]float64, count)
	for i := range v {
		v[i] = float64(i)
	}
	b := buffer.New(8*count + 8)
	var perr error
	ns := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			b.Reset()
			b.PutFloat64s(v)
			if got := b.Float64s(); len(got) != count {
				perr = fmt.Errorf("unpacked %d float64s, want %d", len(got), count)
			}
		}
	}))
	return mbPerS(ns, 8*count), "", perr
}

func probeBufpool(budget time.Duration, size int) (float64, string, error) {
	return perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			p := bufpool.Get(size)
			p[0] = byte(i)
			bufpool.Put(p)
		}
	})), "", nil
}

// mixedPair builds two contexts with the rtt_tcp method set and a startpoint
// in the first for an endpoint of the second.
func mixedPair() (send, recv *nexus.Context, sp *nexus.Startpoint, err error) {
	methods := []nexus.MethodConfig{{Name: "inproc"}, {Name: "tcp"}, {Name: "udp"}}
	if recv, err = nexus.NewContext(nexus.Options{Methods: methods}); err != nil {
		return nil, nil, nil, err
	}
	if send, err = nexus.NewContext(nexus.Options{Methods: methods}); err != nil {
		recv.Close()
		return nil, nil, nil, err
	}
	if sp, err = nexus.TransferStartpoint(recv.NewEndpoint().NewStartpoint(), send); err != nil {
		recv.Close()
		send.Close()
		return nil, nil, nil, err
	}
	return send, recv, sp, nil
}

// probeCoreSelect times automatic selection among the three applicable
// methods (inproc wins, so no socket is dialed).
func probeCoreSelect(_ *benchEnv, budget time.Duration) (float64, string, error) {
	send, recv, sp, err := mixedPair()
	if err != nil {
		return 0, "", err
	}
	defer recv.Close()
	defer send.Close()
	var serr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			sp.Close() // drop the binding so selection runs again
			if _, err := sp.SelectMethod(); err != nil {
				serr = err
			}
		}
	}))
	return v, "", serr
}

// probeCoreTransfer times carrying a startpoint (with its descriptor table)
// into another context.
func probeCoreTransfer(_ *benchEnv, budget time.Duration) (float64, string, error) {
	send, recv, sp, err := mixedPair()
	if err != nil {
		return 0, "", err
	}
	defer recv.Close()
	defer send.Close()
	var terr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := nexus.TransferStartpoint(sp, recv); err != nil {
				terr = err
			}
		}
	}))
	return v, "", terr
}

// probeCoreMulticast times RSR on one startpoint linked to eight endpoints in
// eight inproc contexts (the encode-once path). Receivers are drained
// between batches, outside the timed part.
func probeCoreMulticast(_ *benchEnv, budget time.Duration) (float64, string, error) {
	const fan = 8
	methods := []nexus.MethodConfig{{Name: "inproc"}}
	send, err := nexus.NewContext(nexus.Options{Methods: methods, DisablePollOnRSR: true})
	if err != nil {
		return 0, "", err
	}
	defer send.Close()
	var recvs []*nexus.Context
	defer func() {
		for _, c := range recvs {
			c.Close()
		}
	}()
	var got int
	var sp *nexus.Startpoint
	for i := 0; i < fan; i++ {
		c, err := nexus.NewContext(nexus.Options{Methods: methods})
		if err != nil {
			return 0, "", err
		}
		recvs = append(recvs, c)
		ep := c.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { got++ }))
		one, err := nexus.TransferStartpoint(ep.NewStartpoint(), send)
		if err != nil {
			return 0, "", err
		}
		if sp == nil {
			sp = one
		} else {
			sp.Merge(one)
		}
	}
	payload := nexus.NewBuffer(echoPayload)
	payload.PutRaw(make([]byte, echoPayload))
	var perr error
	v := perOp(budget, func(n int) time.Duration {
		var dt time.Duration
		for n > 0 {
			k := min(n, 4096) // bound what the receivers' mailboxes hold
			n -= k
			want := got + k*fan
			t0 := time.Now()
			for i := 0; i < k; i++ {
				if err := sp.RSR("", payload); err != nil {
					perr = err
				}
			}
			dt += time.Since(t0)
			for tries := 0; got < want && tries < 1<<20; tries++ {
				for _, c := range recvs {
					c.Poll()
				}
			}
			if got < want {
				perr = fmt.Errorf("multicast delivered %d of %d", got-(want-k*fan), k*fan)
			}
		}
		return dt
	})
	return v, "", perr
}

// modPair is two modules of one method wired back to back with no core in
// between: a dials b and b dials a, and each side counts what its sink gets.
type modPair struct {
	a, b       transport.Module
	toB, toA   transport.Conn
	aGot, bGot atomic.Int64
}

var probeSeq atomic.Uint64

// newModPair initializes two modules of the method and dials both ways.
// skip is non-empty when the method cannot run on this platform.
func newModPair(env *benchEnv, method string, extra transport.Params) (p *modPair, skip string, err error) {
	if method == "shm" && !shm.Supported() {
		return nil, "shm is not supported on " + runtime.GOOS, nil
	}
	id := probeSeq.Add(1)
	params := transport.Params{
		"exchange": fmt.Sprintf("bench-probe-%d", id), // inproc: a private exchange
		"dir":      env.tmpDir,                        // shm: segments under the output directory
	}.Merge(extra)
	p = &modPair{}
	mk := func(ctx transport.ContextID, got *atomic.Int64) (transport.Module, *transport.Descriptor, error) {
		m, err := transport.Default.New(method, params)
		if err != nil {
			return nil, nil, err
		}
		desc, err := m.Init(transport.Env{
			Context: ctx, Process: "bench-probe", Params: params,
			Sink: transport.SinkFunc(func([]byte) { got.Add(1) }),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: init: %w", method, err)
		}
		return m, desc, nil
	}
	var aDesc, bDesc *transport.Descriptor
	if p.a, aDesc, err = mk(transport.ContextID(1<<40+2*id), &p.aGot); err != nil {
		return nil, "", err
	}
	if p.b, bDesc, err = mk(transport.ContextID(1<<40+2*id+1), &p.bGot); err != nil {
		p.close()
		return nil, "", err
	}
	if p.toB, err = p.a.Dial(*bDesc); err != nil {
		p.close()
		return nil, "", fmt.Errorf("%s: dial: %w", method, err)
	}
	if p.toA, err = p.b.Dial(*aDesc); err != nil {
		p.close()
		return nil, "", fmt.Errorf("%s: dial back: %w", method, err)
	}
	return p, "", nil
}

func (p *modPair) close() {
	for _, c := range []transport.Conn{p.toB, p.toA} {
		if c != nil {
			c.Close()
		}
	}
	for _, m := range []transport.Module{p.a, p.b} {
		if m != nil {
			m.Close()
		}
	}
}

// waitFor polls m until got reaches want, giving up after a few seconds.
func waitFor(m transport.Module, got *atomic.Int64, want int64) error {
	var start time.Time
	for spins := 1; got.Load() < want; spins++ {
		if n, err := m.Poll(); err != nil {
			return err
		} else if n == 0 {
			runtime.Gosched()
		}
		if spins&0xfff == 0 {
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > 5*time.Second {
				return fmt.Errorf("%s: frame %d never arrived", m.Name(), want)
			}
		}
	}
	return nil
}

// moduleRTT is the raw module round trip: Send and Poll each way, 64-byte
// frames, one goroutine.
func moduleRTT(method string) probeFunc {
	return func(env *benchEnv, budget time.Duration) (float64, string, error) {
		p, skip, err := newModPair(env, method, nil)
		if p == nil {
			return 0, skip, err
		}
		defer p.close()
		frame := make([]byte, echoPayload)
		var perr error
		var round int64
		v := perOp(budget, timed(func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				round++
				if perr = p.toB.Send(frame); perr != nil {
					return
				}
				if perr = waitFor(p.b, &p.bGot, round); perr != nil {
					return
				}
				if perr = p.toA.Send(frame); perr != nil {
					return
				}
				perr = waitFor(p.a, &p.aGot, round)
			}
		}))
		return v, "", perr
	}
}

// moduleBulk streams frames of the given size one way and reports MB/s. The
// sender and a polling receiver run on two goroutines, except for shm, whose
// ring is drained from the sending goroutine every few frames (the ring holds
// them, and a second spinner would only measure the scheduler).
func moduleBulk(method string, size int) probeFunc {
	return func(env *benchEnv, budget time.Duration) (float64, string, error) {
		p, skip, err := newModPair(env, method, nil)
		if p == nil {
			return 0, skip, err
		}
		defer p.close()
		frame := make([]byte, size)
		for i := range frame {
			frame[i] = byte(i * 3)
		}
		var perr error
		var sent int64
		inline := method == "shm"
		var stop atomic.Bool
		var wg sync.WaitGroup
		if !inline {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if n, _ := p.b.Poll(); n == 0 {
						runtime.Gosched()
					}
				}
			}()
		}
		ns := perOp(budget, timed(func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				if perr = p.toB.Send(frame); perr != nil {
					return
				}
				sent++
				if inline && sent%8 == 0 {
					perr = waitFor(p.b, &p.bGot, sent)
				}
			}
			if inline {
				if perr == nil {
					perr = waitFor(p.b, &p.bGot, sent)
				}
				return
			}
			for spins := 0; p.bGot.Load() < sent && perr == nil; spins++ {
				runtime.Gosched()
				if spins > 1<<24 {
					perr = fmt.Errorf("%s: %d of %d frames arrived", method, p.bGot.Load(), sent)
				}
			}
		}))
		stop.Store(true)
		wg.Wait()
		return mbPerS(ns, size), "", perr
	}
}

// probeTCPPollIdle times one Poll of a tcp module holding sixteen idle
// inbound connections, on the portable path (no reactor attached).
func probeTCPPollIdle(_ *benchEnv, budget time.Duration) (float64, string, error) {
	const idle = 16
	var got atomic.Int64
	recv, err := transport.Default.New("tcp", nil)
	if err != nil {
		return 0, "", err
	}
	defer recv.Close()
	desc, err := recv.Init(transport.Env{Context: 1<<41 + 1, Sink: transport.SinkFunc(func([]byte) { got.Add(1) })})
	if err != nil {
		return 0, "", err
	}
	for i := 0; i < idle; i++ {
		m, err := transport.Default.New("tcp", nil)
		if err != nil {
			return 0, "", err
		}
		defer m.Close()
		if _, err := m.Init(transport.Env{Context: transport.ContextID(1<<41 + 2 + i), Sink: transport.SinkFunc(func([]byte) {})}); err != nil {
			return 0, "", err
		}
		c, err := m.Dial(*desc)
		if err != nil {
			return 0, "", err
		}
		defer c.Close()
		if err := c.Send(make([]byte, echoPayload)); err != nil {
			return 0, "", err
		}
	}
	if err := waitFor(recv, &got, idle); err != nil {
		return 0, "", err
	}
	var perr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := recv.Poll(); err != nil {
				perr = err
			}
		}
	}))
	return v, "", perr
}

// probeTCPDial times Dial plus Close against a listening module; the
// listener is polled between batches so it reaps the closed connections.
func probeTCPDial(_ *benchEnv, budget time.Duration) (float64, string, error) {
	nop := transport.SinkFunc(func([]byte) {})
	ln, err := transport.Default.New("tcp", nil)
	if err != nil {
		return 0, "", err
	}
	defer ln.Close()
	desc, err := ln.Init(transport.Env{Context: 1<<42 + 1, Sink: nop})
	if err != nil {
		return 0, "", err
	}
	dialer, err := transport.Default.New("tcp", nil)
	if err != nil {
		return 0, "", err
	}
	defer dialer.Close()
	if _, err := dialer.Init(transport.Env{Context: 1<<42 + 2, Sink: nop}); err != nil {
		return 0, "", err
	}
	var perr error
	ns := perOp(budget, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c, err := dialer.Dial(*desc)
			if err != nil {
				perr = err
				continue
			}
			c.Close()
		}
		dt := time.Since(t0)
		for i := 0; i < 4; i++ {
			ln.Poll()
		}
		return dt
	})
	return ns / 1e3, "", perr
}

// probeUDPBurst sends trains of 32 one-KiB datagrams through the batch send
// path and reports datagrams delivered per second.
func probeUDPBurst(env *benchEnv, budget time.Duration) (float64, string, error) {
	p, skip, err := newModPair(env, "udp", nil)
	if p == nil {
		return 0, skip, err
	}
	defer p.close()
	bs, ok := p.toB.(transport.BatchSender)
	if !ok {
		return 0, "udp connections do not implement BatchSender here", nil
	}
	const train = 32
	frames := make([][]byte, train)
	for i := range frames {
		frames[i] = make([]byte, 1024)
	}
	var perr error
	var sent int64
	ns := perOp(budget, timed(func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			k, err := bs.SendBatch(frames)
			sent += int64(k)
			if err != nil {
				perr = err
				return
			}
			perr = waitFor(p.b, &p.bGot, sent)
		}
	}))
	return train / (ns / 1e9), "", perr
}

// probeReactorWake times a readiness notification: one byte written to a
// pipe until the reactor's callback has run.
func probeReactorWake(_ *benchEnv, budget time.Duration) (float64, string, error) {
	if !reactor.Supported() {
		return 0, "no readiness reactor on " + runtime.GOOS, nil
	}
	r, err := reactor.New()
	if err != nil {
		return 0, "", err
	}
	defer r.Close()
	pr, pw, err := os.Pipe()
	if err != nil {
		return 0, "", err
	}
	defer pr.Close()
	defer pw.Close()
	var woke atomic.Int64
	fd := int(pr.Fd())
	if err := r.Add(fd, func() { woke.Add(1) }); err != nil {
		return 0, "", err
	}
	defer r.Remove(fd)
	one := []byte{1}
	var perr error
	var round int64
	ns := perOp(budget, timed(func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			round++
			if _, err := pw.Write(one); err != nil {
				perr = err
				return
			}
			for spins := 0; woke.Load() < round; spins++ {
				runtime.Gosched()
				if spins > 1<<24 {
					perr = errors.New("reactor never reported the pipe readable")
					return
				}
			}
			// Edge-triggered: empty the pipe so the next write is a new edge.
			if _, err := pr.Read(one); err != nil {
				perr = err
			}
		}
	}))
	return ns / 1e3, "", perr
}

// secureKey is a fixed AES-256 key: the probe measures the cipher, not key
// handling.
const secureKey = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// secureOneWay times Send plus Poll of one frame through the secure module
// wrapped around inproc: one seal, one in-memory hop, one open.
func secureOneWay(env *benchEnv, budget time.Duration, size int) (float64, string, error) {
	p, skip, err := newModPair(env, "secure", transport.Params{"key": secureKey, "inner": "inproc"})
	if p == nil {
		return 0, skip, err
	}
	defer p.close()
	frame := make([]byte, size)
	var perr error
	var sent int64
	ns := perOp(budget, timed(func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			sent++
			if perr = p.toB.Send(frame); perr != nil {
				return
			}
			perr = waitFor(p.b, &p.bGot, sent)
		}
	}))
	return ns, "", perr
}

func probeSecureSmall(env *benchEnv, budget time.Duration) (float64, string, error) {
	return secureOneWay(env, budget, echoPayload)
}

func probeSecureBulk(env *benchEnv, budget time.Duration) (float64, string, error) {
	const size = 256 << 10
	ns, skip, err := secureOneWay(env, budget, size)
	if skip != "" || err != nil {
		return 0, skip, err
	}
	return mbPerS(ns, size), "", nil
}

// probeFrag reassembles 1 MiB messages from 58 KiB fragments (what bulk_rudp
// produces) and reports either ns per fragment or MB/s.
func probeFrag(budget time.Duration, asBandwidth bool) (float64, string, error) {
	const msg, chunk = 1 << 20, 58 << 10
	total := uint32((msg + chunk - 1) / chunk)
	data := make([]byte, msg)
	r := frag.New(frag.Config{})
	now := time.Now()
	var perr error
	var id uint64
	ns := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			id++
			for idx := uint32(0); idx < total; idx++ {
				lo := int(idx) * chunk
				payload, res, _ := r.Add(1, id, idx, total, data[lo:min(lo+chunk, msg)], now)
				switch {
				case idx == total-1 && res == frag.Complete && len(payload) == msg:
					bufpool.Put(payload)
				case idx < total-1 && res == frag.Stored:
				default:
					perr = fmt.Errorf("fragment %d/%d: %v", idx, total, res)
				}
			}
		}
	}))
	if asBandwidth {
		return mbPerS(ns, msg), "", perr
	}
	return ns / float64(total), "", perr
}

func probeFlowAcquire(_ *benchEnv, budget time.Duration) (float64, string, error) {
	win := flow.Window{Bytes: 1 << 20, Frames: 512}
	bank := flow.NewBank(win)
	var grantedB, grantedF = win.Bytes, win.Frames
	return perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			if !bank.TryAcquire(1, "tcp", 128, 1) {
				grantedB += win.Bytes
				grantedF += win.Frames
				bank.Refill(1, "tcp", grantedB, grantedF)
			}
		}
	})), "", nil
}

func probeFlowConsume(_ *benchEnv, budget time.Duration) (float64, string, error) {
	g := flow.NewGrantor(flow.Window{Bytes: 1 << 20, Frames: 512})
	return perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			if g.Consume(1, "tcp", 128, 1) {
				b, _ := g.Grant(1, "tcp")
				sinkVar += int(b)
			}
		}
	})), "", nil
}

// namesRecords is the registry size the names probes run at.
const namesRecords = 400

func namesRecord(origin, seq uint64) names.Record {
	return names.Record{
		Origin: transport.ContextID(origin), Seq: seq, Partition: "scale", GossipEP: 1,
		Table: transport.NewTable(transport.Descriptor{
			Method: "mpl", Context: transport.ContextID(origin),
			Attrs: map[string]string{"partition": "scale", "fabric": "bench/mpl"},
		}),
	}
}

func namesRegistry(seq uint64) *names.Registry {
	r := names.NewRegistry()
	for o := uint64(1); o <= namesRecords; o++ {
		r.Merge(namesRecord(o, seq))
	}
	return r
}

func probeNamesMerge(_ *benchEnv, budget time.Duration) (float64, string, error) {
	r := namesRegistry(1)
	seq := uint64(1)
	var perr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			o := uint64(i%namesRecords) + 1
			if o == 1 {
				seq++
			}
			if !r.Merge(namesRecord(o, seq)) {
				perr = errors.New("a newer record did not change the registry")
			}
		}
	}))
	return v, "", perr
}

// probeNamesDelta answers a full digest from a peer that is behind on a
// tenth of the records.
func probeNamesDelta(_ *benchEnv, budget time.Duration) (float64, string, error) {
	ours, theirs := namesRegistry(1), namesRegistry(1)
	for o := uint64(1); o <= namesRecords; o += 10 {
		ours.Merge(namesRecord(o, 2))
	}
	d, _ := theirs.Digest(0, 0)
	var perr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			if delta, _ := ours.DeltaFor(d, 64); len(delta) != namesRecords/10 {
				perr = fmt.Errorf("delta of %d records, want %d", len(delta), namesRecords/10)
			}
		}
	}))
	return v, "", perr
}

func probeNamesDigest(_ *benchEnv, budget time.Duration) (float64, string, error) {
	r := namesRegistry(1)
	var perr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			if d, _ := r.Digest(0, 0); len(d.Entries) != namesRecords {
				perr = fmt.Errorf("digest of %d entries, want %d", len(d.Entries), namesRecords)
			}
		}
	}))
	return v, "", perr
}

// probeRPCLocal is Call plus Await against an echo handler in the calling
// context itself, over the synchronous local method: the RPC layer's own
// cost with no transport under it.
func probeRPCLocal(_ *benchEnv, budget time.Duration) (float64, string, error) {
	ctx, err := nexus.NewContext(nexus.Options{RPC: nexus.RPCConfig{Enabled: true}})
	if err != nil {
		return 0, "", err
	}
	defer ctx.Close()
	if err := nexus.RegisterRPC(ctx, "echo", func(req *nexus.RPCRequest, r *nexus.Responder) {
		r.Reply(req.Payload)
	}); err != nil {
		return 0, "", err
	}
	sp := ctx.NewEndpoint().NewStartpoint()
	payload := nexus.NewBuffer(echoPayload)
	payload.PutRaw(make([]byte, echoPayload))
	var perr error
	v := perOp(budget, timed(func(n int) {
		for i := 0; i < n; i++ {
			f, err := nexus.Call(sp, "echo", payload, nexus.CallOptions{})
			if err != nil {
				perr = err
				return
			}
			if res, err := f.Await(); err != nil || res.Len() != echoPayload {
				perr = fmt.Errorf("local echo: %v", err)
				return
			}
		}
	}))
	return v, "", perr
}

// mpiWorld boots an n-rank single-partition machine over inproc.
func mpiWorld(n int) (*nexus.Machine, *nexus.World, error) {
	machine, err := nexus.NewMachine(nexus.UniformMachine(n, "p", nexus.MethodConfig{Name: "inproc"}))
	if err != nil {
		return nil, nil, err
	}
	world, err := nexus.NewWorld(machine)
	if err != nil {
		machine.Close()
		return nil, nil, err
	}
	return machine, world, nil
}

func probeMPIPingPong(_ *benchEnv, budget time.Duration) (float64, string, error) {
	machine, world, err := mpiWorld(2)
	if err != nil {
		return 0, "", err
	}
	defer machine.Close()
	payload := nexus.NewBuffer(echoPayload)
	payload.PutRaw(make([]byte, echoPayload))
	var perr error
	v := perOp(budget, timed(func(n int) {
		done := make(chan error, 1)
		go func() {
			c := world.Comm(1)
			for i := 0; i < n; i++ {
				m, err := c.Recv(0, 1)
				if err == nil {
					err = c.Send(0, 2, m.Buf)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		c := world.Comm(0)
		for i := 0; i < n; i++ {
			err := c.Send(1, 1, payload)
			if err == nil {
				_, err = c.Recv(1, 2)
			}
			if err != nil {
				perr = err
				break
			}
		}
		if err := <-done; err != nil && perr == nil {
			perr = err
		}
	}))
	return v, "", perr
}

func probeMPIAllreduce(_ *benchEnv, budget time.Duration) (float64, string, error) {
	const ranks = 4
	machine, world, err := mpiWorld(ranks)
	if err != nil {
		return 0, "", err
	}
	defer machine.Close()
	var perr error
	ns := perOp(budget, timed(func(n int) {
		errs := make(chan error, ranks)
		for r := 0; r < ranks; r++ {
			go func(c *nexus.Comm) {
				vals := []float64{float64(c.Rank())}
				for i := 0; i < n; i++ {
					sum, err := c.Allreduce(vals, nexus.ReduceSum)
					if err == nil && sum[0] != ranks*(ranks-1)/2 {
						err = fmt.Errorf("allreduce sum %v", sum[0])
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(world.Comm(r))
		}
		for r := 0; r < ranks; r++ {
			if err := <-errs; err != nil && perr == nil {
				perr = err
			}
		}
	}))
	return ns / 1e3, "", perr
}
