package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	_ "nexus/internal/simnet"
	"nexus/internal/transport"
	_ "nexus/internal/transport/inproc"
	_ "nexus/internal/transport/local"
	_ "nexus/internal/transport/secure"
	_ "nexus/internal/transport/tcp"
	_ "nexus/internal/transport/udp"
	"nexus/internal/wire"
)

// tagSeq isolates test media (inproc exchanges, simnet fabrics) per fixture,
// so -count=2 and parallel subtests never share a wire.
var tagSeq atomic.Uint64

func freshTag(base string) string {
	return fmt.Sprintf("%s-%d", base, tagSeq.Add(1))
}

// newCtx builds a context (with the RPC layer attached) on isolated media.
func newCtx(t testing.TB, tag, partition string, methods ...core.MethodConfig) (*core.Context, *RPC) {
	t.Helper()
	for i := range methods {
		if methods[i].Params == nil {
			methods[i].Params = transport.Params{}
		}
		switch methods[i].Name {
		case "inproc":
			methods[i].Params["exchange"] = tag
		case "mpl", "wan":
			methods[i].Params["fabric"] = tag
		}
	}
	c, err := core.NewContext(core.Options{Partition: partition, Methods: methods})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, Enable(c)
}

// transferStartpoint carries an encoded startpoint into another context, the
// way request envelopes carry reply startpoints.
func transferStartpoint(t testing.TB, sp *core.Startpoint, dst *core.Context) *core.Startpoint {
	t.Helper()
	b := buffer.New(512)
	sp.Encode(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// inprocPair builds a caller/server pair joined by an isolated inproc
// exchange, with a background poller on the server side.
func inprocPair(t testing.TB, base string) (callerC *core.Context, caller *RPC, server *RPC, sp *core.Startpoint) {
	t.Helper()
	tag := freshTag(base)
	serverC, server := newCtx(t, tag, "", core.MethodConfig{Name: "inproc"})
	callerC, caller = newCtx(t, tag, "", core.MethodConfig{Name: "inproc"})
	ep := serverC.NewEndpoint()
	sp = transferStartpoint(t, ep.NewStartpoint(), callerC)
	t.Cleanup(serverC.StartPoller(0))
	return callerC, caller, server, sp
}

func strBuf(s string) *buffer.Buffer {
	b := buffer.New(len(s) + 8)
	b.PutString(s)
	return b
}

func echoHandler(req *Request, r *Responder) {
	s := req.Payload.String()
	_ = r.Reply(strBuf(s + "!"))
}

func TestCallReply(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-basic")
	server.Register("echo", echoHandler)
	f, err := caller.Call(sp, "echo", strBuf("hello"), CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Await()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "hello!" {
		t.Fatalf("reply = %q, want %q", got, "hello!")
	}
	if !f.Done() {
		t.Fatal("Done() false after Await")
	}
	// Await is idempotent.
	res2, err := f.Await()
	if err != nil || res2.Len() != res.Len() {
		t.Fatalf("second Await = (%v, %v)", res2, err)
	}
}

func TestNilRequestAndNilReply(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-nil")
	server.Register("ping", func(req *Request, r *Responder) {
		if req.Payload.Len() != 0 {
			_ = r.Error(errors.New("expected empty request"))
			return
		}
		_ = r.Reply(nil)
	})
	f, err := caller.Call(sp, "ping", nil, CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Await()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("nil reply decoded to %d bytes", res.Len())
	}
}

func TestRemoteError(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-err")
	server.Register("fail", func(req *Request, r *Responder) {
		_ = r.Error(errors.New("boom"))
	})
	f, err := caller.Call(sp, "fail", nil, CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Await()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Await error = %v, want RemoteError", err)
	}
	if re.Msg != "boom" || re.Method != "fail" {
		t.Fatalf("RemoteError = %+v", re)
	}
}

func TestUnknownHandler(t *testing.T) {
	_, caller, _, sp := inprocPair(t, "rpc-unknown")
	f, err := caller.Call(sp, "nope", nil, CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Await()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Await error = %v, want RemoteError", err)
	}
}

func TestDeadlineExpiresAndCancelsServerWork(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-deadline")
	var serverSawCancel atomic.Bool
	server.Register("slow", func(req *Request, r *Responder) {
		// Defer the reply: hold the responder, watch the call context from a
		// goroutine, and never actually answer.
		ctx := req.Context()
		go func() {
			<-ctx.Done()
			serverSawCancel.Store(true)
		}()
	})
	f, err := caller.Call(sp, "slow", nil, CallOptions{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err = f.Await()
	if err == nil {
		t.Fatal("Await succeeded, want deadline error")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error %v does not match ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not match context.DeadlineExceeded", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
	// The server's call context fires at the wire-propagated deadline.
	deadline := time.Now().Add(10 * time.Second)
	for !serverSawCancel.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server-side call context never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFutureCancelStopsServerWork(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-cancel")
	var serverSawCancel atomic.Bool
	started := make(chan struct{}, 1)
	server.Register("slow", func(req *Request, r *Responder) {
		ctx := req.Context()
		started <- struct{}{}
		go func() {
			<-ctx.Done()
			serverSawCancel.Store(true)
		}()
	})
	f, err := caller.Call(sp, "slow", nil, CallOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	f.Cancel()
	_, err = f.Await()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Await after Cancel = %v, want ErrCanceled", err)
	}
	// The wire cancel reaches the server and fires the handler's context
	// well before its 30s deadline.
	deadline := time.Now().Add(10 * time.Second)
	for !serverSawCancel.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never observed the cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestResponderCompletesOnce(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-once")
	errs := make(chan error, 2)
	server.Register("twice", func(req *Request, r *Responder) {
		errs <- r.Reply(strBuf("first"))
		errs <- r.Reply(strBuf("second"))
	})
	f, err := caller.Call(sp, "twice", nil, CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Await()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "first" {
		t.Fatalf("reply = %q", got)
	}
	if e := <-errs; e != nil {
		t.Fatalf("first Reply: %v", e)
	}
	if e := <-errs; !errors.Is(e, ErrAlreadyReplied) {
		t.Fatalf("second Reply = %v, want ErrAlreadyReplied", e)
	}
}

// TestDuplicateReplySuppression injects the same response frame twice, the
// way a failover-retried request produces two replies under one call id: the
// Future must complete once and the copy must be counted as a duplicate.
func TestDuplicateReplySuppression(t *testing.T) {
	callerC, caller, server, sp := inprocPair(t, "rpc-dup")
	server.Register("echo", echoHandler)
	f, err := caller.Call(sp, "echo", strBuf("x"), CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Await()
	if err != nil || res.String() != "x!" {
		t.Fatalf("Await = (%v, %v)", res, err)
	}
	// Re-deliver the response intake for the (now completed) call id.
	rb := strBuf("x!")
	caller.Intake(wire.Frame{
		Ext:     wire.Ext{RPC: wire.RPCExt{Call: f.pc.id, Kind: wire.RPCResponse}},
		Payload: rb.Encode(),
	})
	if n := callerC.Stats().Get("rpc.replies.duplicate"); n != 1 {
		t.Fatalf("rpc.replies.duplicate = %d, want 1", n)
	}
	// The future's outcome is untouched: same result buffer, same nil error.
	res2, err := f.Await()
	if err != nil || res2 != res {
		t.Fatalf("Await after duplicate = (%p, %v), want (%p, nil)", res2, err, res)
	}
}

// TestRetriedRequestSingleCallback emulates the failover-retry shape end to
// end: the same request frame (same call id) reaches the server twice, the
// server serves it twice, and the caller's Future must still complete
// exactly once, counting the second reply as a duplicate.
func TestRetriedRequestSingleCallback(t *testing.T) {
	callerC, caller, server, sp := inprocPair(t, "rpc-retry")
	var served atomic.Int64
	server.Register("echo", func(req *Request, r *Responder) {
		served.Add(1)
		_ = r.Reply(strBuf(req.Payload.String() + "!"))
	})
	f, err := caller.Call(sp, "echo", strBuf("req"), CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the request envelope a retry would carry — same call id, same
	// reply startpoint — and inject it at the server as a second delivery.
	env := buffer.New(len(caller.replyEnc) + 32)
	env.PutBytes(caller.replyEnc)
	env.PutBytes(strBuf("req").Encode())
	server.Intake(wire.Frame{
		SrcContext: uint64(callerC.ID()),
		Handler:    "echo",
		Ext:        wire.Ext{RPC: wire.RPCExt{Call: f.pc.id, Kind: wire.RPCRequest}},
		Payload:    env.Encode(),
	})
	res, err := f.Await()
	if err != nil || res.String() != "req!" {
		t.Fatalf("Await = (%v, %v)", res, err)
	}
	// Both serves happened; only one reply completed the future.
	deadline := time.Now().Add(10 * time.Second)
	for callerC.Stats().Get("rpc.replies.duplicate") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("duplicate reply never counted (served=%d)", served.Load())
		}
		callerC.PollUntil(func() bool { return false }, time.Millisecond)
	}
	if served.Load() != 2 {
		t.Fatalf("server served %d times, want 2", served.Load())
	}
	if n := callerC.Stats().Get("rpc.replies"); n != 1 {
		t.Fatalf("rpc.replies = %d, want 1", n)
	}
}

func TestStreamingOrder(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-stream")
	const n = 10
	server.Register("count", func(req *Request, r *Responder) {
		for i := 0; i < n; i++ {
			b := buffer.New(8)
			b.PutInt(i)
			if err := r.Send(b); err != nil {
				t.Errorf("Send(%d): %v", i, err)
			}
		}
		if err := r.End(); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	s, err := caller.CallStream(sp, "count", nil, CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ch, err := s.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got := ch.Int(); got != i {
			t.Fatalf("chunk %d carried %d", i, got)
		}
	}
	if _, err := s.Recv(); err != io.EOF {
		t.Fatalf("post-stream Recv = %v, want io.EOF", err)
	}
	if _, err := s.Recv(); err != io.EOF {
		t.Fatalf("repeated Recv = %v, want io.EOF", err)
	}
}

func TestStreamEmpty(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-stream-empty")
	server.Register("none", func(req *Request, r *Responder) { _ = r.End() })
	s, err := caller.CallStream(sp, "none", nil, CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != io.EOF {
		t.Fatalf("Recv on empty stream = %v, want io.EOF", err)
	}
}

func TestStreamErrorMidway(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-stream-err")
	server.Register("flaky", func(req *Request, r *Responder) {
		_ = r.Send(strBuf("a"))
		_ = r.Send(strBuf("b"))
		_ = r.Error(errors.New("midway"))
	})
	s, err := caller.CallStream(sp, "flaky", nil, CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_, err := s.Recv()
		if err == nil {
			got++
			continue
		}
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "midway" {
			t.Fatalf("stream error = %v, want RemoteError(midway)", err)
		}
		break
	}
	// The error may beat unconsumed chunks (it completes the call), so got
	// can be 0..2 — but never more than the server sent.
	if got > 2 {
		t.Fatalf("received %d chunks, server sent 2", got)
	}
}

func TestStreamUnaryReplyBridges(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-stream-unary")
	server.Register("echo", echoHandler)
	s, err := caller.CallStream(sp, "echo", strBuf("one"), CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.String(); got != "one!" {
		t.Fatalf("bridged chunk = %q", got)
	}
	if _, err := s.Recv(); err != io.EOF {
		t.Fatalf("second Recv = %v, want io.EOF", err)
	}
}

// sumHandler replies with the byte sum and length of a request's argument,
// so a caller can check a large argument arrived whole.
func sumHandler(req *Request, r *Responder) {
	data := req.Payload.BytesView()
	var sum uint64
	for _, b := range data {
		sum += uint64(b)
	}
	out := buffer.New(16)
	out.PutUint64(sum)
	out.PutInt(len(data))
	_ = r.Reply(out)
}

// largeArg builds an n-byte request argument and its byte sum.
func largeArg(n int) (*buffer.Buffer, uint64) {
	payload := make([]byte, n)
	var sum uint64
	for i := range payload {
		payload[i] = byte(i * 7)
		sum += uint64(payload[i])
	}
	req := buffer.New(n + 8)
	req.PutBytes(payload)
	return req, sum
}

// checkSum verifies a sumHandler reply against the argument sent.
func checkSum(t *testing.T, res *buffer.Buffer, sum uint64, n int) {
	t.Helper()
	if got := res.Uint64(); got != sum {
		t.Errorf("checksum = %d, want %d", got, sum)
	}
	if got := res.Int(); got != n {
		t.Errorf("server saw %d bytes, want %d", got, n)
	}
}

// TestLargeRequestInproc sends a 64 KiB argument as an ordinary request: one
// RSR out, served whole.
func TestLargeRequestInproc(t *testing.T) {
	callerC, caller, server, sp := inprocPair(t, "rpc-large")
	server.Register("sum", sumHandler)
	const n = 64 << 10
	req, sum := largeArg(n)
	f, err := caller.Call(sp, "sum", req, CallOptions{Timeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Await()
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, res, sum, n)
	if got := callerC.Stats().Get("rsr.sent"); got != 1 {
		t.Fatalf("caller rsr.sent = %d, want 1", got)
	}
}

// TestLargeCallsUnderFlowControl starts k concurrent 512 KiB calls from one
// caller against a threaded, flow-controlled tcp server (the shape of the
// benchmark's rpc_mix) and awaits them all. Every call must succeed — a large
// argument waits for credit like any normal-class request — and each call is
// exactly one RSR out and one back.
func TestLargeCallsUnderFlowControl(t *testing.T) {
	const n = 512 << 10
	req, sum := largeArg(n)
	for _, k := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			mk := func(threaded bool) (*core.Context, *RPC) {
				c, err := core.NewContext(core.Options{
					Methods:  []core.MethodConfig{{Name: "tcp"}},
					Threaded: threaded,
					Flow:     core.FlowConfig{Enabled: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c, Enable(c)
			}
			serverC, server := mk(true)
			callerC, caller := mk(false)
			// Credit grants travel on a reverse route resolved from the
			// peer's table.
			serverC.RegisterPeerTable(callerC.AdvertisedTable())
			callerC.RegisterPeerTable(serverC.AdvertisedTable())
			server.Register("sum", sumHandler)
			sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
			t.Cleanup(serverC.StartPoller(0))

			callerSent0 := callerC.Stats().Get("rsr.sent")
			serverSent0 := serverC.Stats().Get("rsr.sent")
			futures := make([]*Future, k)
			for i := range futures {
				f, err := caller.Call(sp, "sum", req, CallOptions{Timeout: 30 * time.Second})
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				futures[i] = f
			}
			for i, f := range futures {
				res, err := f.Await()
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					continue
				}
				checkSum(t, res, sum, n)
			}
			if got := callerC.Stats().Get("rsr.sent") - callerSent0; got != uint64(k) {
				t.Errorf("caller rsr.sent delta = %d, want %d", got, k)
			}
			// The server counts a reply after its send returns, which can be
			// after the caller has already taken it.
			deadline := time.Now().Add(10 * time.Second)
			for serverC.Stats().Get("rsr.sent")-serverSent0 < uint64(k) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := serverC.Stats().Get("rsr.sent") - serverSent0; got != uint64(k) {
				t.Errorf("server rsr.sent delta = %d, want %d", got, k)
			}
		})
	}
}

func TestCallNotEnabled(t *testing.T) {
	tag := freshTag("rpc-disabled")
	c, err := core.NewContext(core.Options{
		Methods: []core.MethodConfig{{Name: "inproc", Params: transport.Params{"exchange": tag}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sp := c.NewEndpoint().NewStartpoint()
	if _, err := Call(sp, "x", nil, CallOptions{}); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("Call on bare context = %v, want ErrNotEnabled", err)
	}
	if err := Register(c, "x", func(*Request, *Responder) {}); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("Register on bare context = %v, want ErrNotEnabled", err)
	}
}

func TestTimeoutNegativeMeansNone(t *testing.T) {
	_, caller, server, sp := inprocPair(t, "rpc-notimeout")
	server.Register("echo", echoHandler)
	f, err := caller.Call(sp, "echo", strBuf("a"), CallOptions{Timeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	if f.pc.deadline != (time.Time{}) {
		t.Fatalf("negative Timeout still set deadline %v", f.pc.deadline)
	}
	if _, err := f.Await(); err != nil {
		t.Fatal(err)
	}
}

func TestRPCLatenciesPublished(t *testing.T) {
	callerC, caller, server, sp := inprocPair(t, "rpc-lat")
	callerC.EnableStats()
	server.Register("echo", echoHandler)
	f, err := caller.Call(sp, "echo", strBuf("a"), CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Await(); err != nil {
		t.Fatal(err)
	}
	snap := callerC.Observe()
	found := false
	for _, l := range snap.Latencies {
		if l.Method == "rpc:echo" && l.Stage == "rpc_call" && l.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rpc:echo/rpc_call latency in snapshot: %+v", snap.Latencies)
	}
}

// TestConcurrentEnable races eight Enable calls on one context behind a
// start barrier, 200 times. Every caller must get the same runtime, and a
// method registered on the runtime caller 0 got must be served.
func TestConcurrentEnable(t *testing.T) {
	const callers, trials = 8, 200
	for trial := 0; trial < trials; trial++ {
		c, err := core.NewContext(core.Options{Methods: []core.MethodConfig{{Name: "local"}}})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*RPC, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = Enable(c)
			}(i)
		}
		close(start)
		wg.Wait()
		for i, r := range got {
			if r != got[0] || r != For(c) {
				t.Fatalf("trial %d: caller %d got runtime %p, caller 0 %p, slot %p", trial, i, r, got[0], For(c))
			}
		}
		got[0].Register("echo", echoHandler)
		f, err := got[callers-1].Call(c.NewEndpoint().NewStartpoint(), "echo", strBuf("x"), CallOptions{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := f.Await(); err != nil || res.String() != "x!" {
			t.Fatalf("trial %d: Await = (%v, %v)", trial, res, err)
		}
		c.Close()
	}
}
