package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nexus"
)

// This file holds rpc_mix: closed-loop callers issuing get/put/scan calls
// over loopback tcp against an in-memory key/value store served by a
// threaded, flow-controlled context. Values are a pure function of (key,
// version), so every reply and every stored put is verified without keeping
// a second copy of the data.

// rpcImpl is the generated input of rpc_mix: one call schedule per caller.
type rpcImpl struct {
	env     *benchEnv
	callers int
	ops     [][]rpcOp
	lat     [][]uint32 // per-caller sample storage, reused across repetitions
	merged  []uint32
}

// rpcScheduleLen is the length of each caller's generated schedule; a caller
// that exhausts it starts over (versions keep advancing, so replies differ).
const rpcScheduleLen = 1 << 16

func newRPCMix(env *benchEnv) (workloadImpl, error) {
	w := &rpcImpl{env: env, callers: min(runtime.NumCPU(), 2)}
	for c := 0; c < w.callers; c++ {
		w.ops = append(w.ops, genRPCOps(env.seed, c, w.callers, rpcScheduleLen))
		w.lat = append(w.lat, nil)
	}
	return w, nil
}

// rpcInst is one live rpc_mix set-up.
type rpcInst struct {
	impl       *rpcImpl
	srv, cli   *nexus.Context
	sp         *nexus.Startpoint
	stopPoller func()
	versions   []atomic.Uint32 // the store: current version of every key
	scratch    sync.Pool       // *rpcScratch for the server handlers
	srvBad     atomic.Uint64   // replies the server could not send (the caller sees every other failure)
	callers    []*rpcCaller
}

// rpcCaller is one closed-loop caller's state, owned by its goroutine.
type rpcCaller struct {
	id      int
	pos     int
	written map[uint32]uint32 // versions this caller has put (it is the only writer of its keys)
	req     *nexus.Buffer
	scratch []byte
	lat     []uint32
}

// rpcScratch is a server handler's reusable reply buffer and value storage.
type rpcScratch struct {
	b   *nexus.Buffer
	val []byte
}

func (w *rpcImpl) build() (instance, time.Duration, error) {
	in := &rpcInst{impl: w, versions: make([]atomic.Uint32, rpcKeys)}
	in.scratch.New = func() any {
		return &rpcScratch{b: nexus.NewBuffer(rpcSmallMax + 16), val: make([]byte, rpcLargeSz)}
	}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	clock := startSetup()
	methods := []nexus.MethodConfig{{Name: "tcp"}}
	var err error
	in.srv, err = nexus.NewContext(nexus.Options{
		Methods:  methods,
		Threaded: true,
		Flow:     nexus.FlowConfig{Enabled: true},
		RPC:      nexus.RPCConfig{Enabled: true},
	})
	if err != nil {
		return nil, 0, err
	}
	in.cli, err = nexus.NewContext(nexus.Options{
		Methods: methods,
		Flow:    nexus.FlowConfig{Enabled: true},
		RPC:     nexus.RPCConfig{Enabled: true},
	})
	if err != nil {
		return nil, 0, err
	}
	clock.settle()
	// Credit grants travel on a reverse route resolved from the peer's table.
	in.srv.RegisterPeerTable(in.cli.AdvertisedTable())
	in.cli.RegisterPeerTable(in.srv.AdvertisedTable())
	for name, h := range map[string]nexus.RPCHandler{"get": in.serveGet, "put": in.servePut, "scan": in.serveScan} {
		if err := nexus.RegisterRPC(in.srv, name, h); err != nil {
			return nil, 0, err
		}
	}
	if in.sp, err = pinnedLink(in.srv.NewEndpoint(), in.cli, "tcp"); err != nil {
		return nil, 0, err
	}
	in.stopPoller = in.srv.StartPoller(0)
	for c := 0; c < w.callers; c++ {
		in.callers = append(in.callers, &rpcCaller{
			id: c, written: make(map[uint32]uint32),
			req: nexus.NewBuffer(rpcSmallMax + 16), scratch: make([]byte, rpcLargeSz),
		})
	}
	// One verified call of each kind: link dialed, reply route cached.
	cl := in.callers[0]
	for _, op := range []rpcOp{{opGet, 0}, {opPut, uint32(cl.id)}, {opScan, 0}} {
		if _, err := in.call(cl, op, nil); err != nil {
			return nil, 0, fmt.Errorf("first %v call: %w", op, err)
		}
	}
	ok = true
	return in, clock.done(), nil
}

// header starts a reply in a pooled scratch buffer.
func (in *rpcInst) header(key, ver uint32) *rpcScratch {
	sc := in.scratch.Get().(*rpcScratch)
	sc.b.Reset()
	sc.b.PutUint32(key)
	sc.b.PutUint32(ver)
	return sc
}

func (in *rpcInst) reply(r *nexus.Responder, sc *rpcScratch) {
	if err := r.Reply(sc.b); err != nil {
		in.srvBad.Add(1)
	}
	in.scratch.Put(sc)
}

func (in *rpcInst) serveGet(req *nexus.RPCRequest, r *nexus.Responder) {
	key := req.Payload.Uint32()
	if req.Payload.Err() != nil || key >= rpcKeys {
		r.Error(errors.New("get: bad request"))
		return
	}
	ver := in.versions[key].Load()
	sc := in.header(key, ver)
	val := sc.val[:valueSize(key)]
	fillValue(val, key, ver)
	sc.b.PutBytes(val)
	in.reply(r, sc)
}

func (in *rpcInst) servePut(req *nexus.RPCRequest, r *nexus.Responder) {
	key := req.Payload.Uint32()
	ver := req.Payload.Uint32()
	val := req.Payload.BytesView()
	if req.Payload.Err() != nil || key >= rpcKeys || len(val) != valueSize(key) || !checkValue(val, key, ver) {
		r.Error(errors.New("put: value does not match its key and version"))
		return
	}
	in.versions[key].Store(ver)
	in.reply(r, in.header(key, ver))
}

func (in *rpcInst) serveScan(req *nexus.RPCRequest, r *nexus.Responder) {
	key := req.Payload.Uint32()
	if req.Payload.Err() != nil || key+rpcStreamChunks > rpcKeys {
		r.Error(errors.New("scan: bad request"))
		return
	}
	for i := uint32(0); i < rpcStreamChunks; i++ {
		k := key + i
		ver := in.versions[k].Load()
		sc := in.header(k, ver)
		val := sc.val[:rpcStreamChunkSz]
		fillValue(val, k, ver)
		sc.b.PutBytes(val)
		// Chunks are bulk class: a send is refused, not queued, while the
		// caller's credit window is exhausted. Yield until the grant lands.
		err := r.Send(sc.b)
		for tries := 0; errors.Is(err, nexus.ErrNoCredit) && tries < 10000; tries++ {
			runtime.Gosched()
			err = r.Send(sc.b)
		}
		in.scratch.Put(sc)
		if err != nil {
			r.Error(err)
			return
		}
	}
	if err := r.End(); err != nil {
		in.srvBad.Add(1)
	}
}

// call performs one scheduled call and verifies what comes back. It
// returns the verified payload bytes moved.
func (in *rpcInst) call(cl *rpcCaller, op rpcOp, tr *tracer) (uint64, error) {
	owned := int(op.Key)%in.impl.callers == cl.id
	cl.req.Reset()
	cl.req.PutUint32(op.Key)
	switch op.Kind {
	case opGet:
		res, err := in.unary(cl, "get", tr)
		if err != nil {
			return 0, err
		}
		key, ver, val := res.Uint32(), res.Uint32(), res.BytesView()
		if res.Err() != nil || key != op.Key || len(val) != valueSize(key) || !checkValue(val, key, ver) {
			return 0, fmt.Errorf("get %d: reply does not match key and version %d", op.Key, ver)
		}
		if want, wrote := cl.written[key]; owned && wrote && ver != want {
			return 0, fmt.Errorf("get %d: version %d, this caller last put %d", key, ver, want)
		}
		return uint64(len(val)), nil
	case opPut:
		ver := cl.written[op.Key] + 1
		n := valueSize(op.Key)
		fillValue(cl.scratch[:n], op.Key, ver)
		cl.req.PutUint32(ver)
		cl.req.PutBytes(cl.scratch[:n])
		res, err := in.unary(cl, "put", tr)
		if err != nil {
			return 0, err
		}
		if key, got := res.Uint32(), res.Uint32(); res.Err() != nil || key != op.Key || got != ver {
			return 0, fmt.Errorf("put %d v%d: acknowledged as %d v%d", op.Key, ver, key, got)
		}
		cl.written[op.Key] = ver
		return uint64(n), nil
	default:
		tr.begin(spRPCCall, 0)
		s, err := nexus.CallStream(in.sp, "scan", cl.req, nexus.CallOptions{})
		tr.end()
		if err != nil {
			return 0, err
		}
		tr.begin(spRPCAwait, 0)
		defer tr.end()
		for i := uint32(0); ; i++ {
			ch, err := s.Recv()
			if err == io.EOF {
				if i != rpcStreamChunks {
					return 0, fmt.Errorf("scan %d: %d chunks, want %d", op.Key, i, rpcStreamChunks)
				}
				return rpcStreamChunks * rpcStreamChunkSz, nil
			}
			if err != nil {
				return 0, err
			}
			key, ver, val := ch.Uint32(), ch.Uint32(), ch.BytesView()
			if ch.Err() != nil || key != op.Key+i || len(val) != rpcStreamChunkSz || !checkValue(val, key, ver) {
				return 0, fmt.Errorf("scan %d: chunk %d does not match key and version", op.Key, i)
			}
		}
	}
}

// unary sends cl.req as one call and awaits its reply.
func (in *rpcInst) unary(cl *rpcCaller, method string, tr *tracer) (*nexus.Buffer, error) {
	tr.begin(spRPCCall, 0)
	f, err := nexus.Call(in.sp, method, cl.req, nexus.CallOptions{})
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(spRPCAwait, 0)
	res, err := f.Await()
	tr.end()
	return res, err
}

// run lets every caller work through its schedule until d has passed.
func (in *rpcInst) run(d time.Duration, ts *traceSet) (repOut, error) {
	w := in.impl
	type tally struct {
		attempted, failed, payload uint64
		firstErr                   error
		end                        time.Time
	}
	tallies := make([]tally, len(in.callers))
	srvBad0 := in.srvBad.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for i, cl := range in.callers {
		wg.Add(1)
		go func(cl *rpcCaller, t *tally, tr *tracer) {
			defer wg.Done()
			if w.lat[cl.id] == nil {
				w.lat[cl.id] = make([]uint32, 0, latCap/4)
			}
			cl.lat = w.lat[cl.id][:0]
			ops := w.ops[cl.id]
			prev := start
			for {
				op := ops[cl.pos%len(ops)]
				cl.pos++
				tr.begin(spOp, uint64(cl.id)<<32|uint64(cl.pos))
				n, err := in.call(cl, op, tr)
				tr.end()
				now := time.Now()
				t.attempted++
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
				} else {
					t.payload += n
				}
				cl.lat = append(cl.lat, uint32(min(now.Sub(prev), time.Duration(^uint32(0)))))
				prev = now
				if now.Sub(start) >= d || t.failed > 100 {
					t.end = now
					return
				}
			}
		}(cl, &tallies[i], ts.get(i))
	}
	wg.Wait()

	var out repOut
	end := start
	var firstErr error
	merged := w.merged[:0]
	for i, t := range tallies {
		out.attempted += t.attempted
		out.failed += t.failed
		out.payload += t.payload
		if t.end.After(end) {
			end = t.end
		}
		if firstErr == nil {
			firstErr = t.firstErr
		}
		w.lat[i] = in.callers[i].lat
		merged = append(merged, in.callers[i].lat...)
	}
	w.merged = merged
	out.failed += in.srvBad.Load() - srvBad0
	out.elapsed = end.Sub(start)
	out.lat = merged
	if out.failed > 0 && firstErr != nil {
		w.env.note("rpc_mix: first failed call: %v", firstErr)
	}
	return out, nil
}

func (in *rpcInst) counters() map[string]uint64 { return sumCounters(in.srv, in.cli) }

func (in *rpcInst) close() {
	if in.stopPoller != nil {
		in.stopPoller()
	}
	if in.cli != nil {
		in.cli.Close()
	}
	if in.srv != nil {
		in.srv.Close()
	}
}
