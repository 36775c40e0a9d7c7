package rpc

// RPC conformance over every communication module: the same request/reply,
// remote-error, streaming, and deadline fixture runs across in-process,
// local (self-call), stream, datagram, reliable-datagram, encrypted,
// simulated, and shared-memory transports, so the layer's semantics do not
// depend on which method selection picked. Runs under -race and -count=2 in
// CI (fixtures isolate their media per invocation).

import (
	"errors"
	"io"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
	"nexus/internal/transport"
	"nexus/internal/transport/shm"
)

const secureTestKey = "000102030405060708090a0b0c0d0e0f" // 16-byte AES key, both ends

// rpcFixture is one transport's caller/server pair.
type rpcFixture struct {
	callerC *core.Context
	caller  *RPC
	server  *RPC
	sp      *core.Startpoint
	// reliable means frames are never dropped; the suite retries calls on
	// datagram transports without a reliability layer.
	reliable bool
}

var rpcFixtures = []struct {
	name string
	make func(t *testing.T) *rpcFixture
}{
	{"inproc", func(t *testing.T) *rpcFixture {
		tag := freshTag("rpcconf-inproc")
		serverC, server := newCtx(t, tag, "", core.MethodConfig{Name: "inproc"})
		callerC, caller := newCtx(t, tag, "", core.MethodConfig{Name: "inproc"})
		sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
		t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
		return &rpcFixture{callerC: callerC, caller: caller, server: server, sp: sp, reliable: true}
	}},
	{"local", func(t *testing.T) *rpcFixture {
		// Self-call: one context is both caller and server; delivery is
		// synchronous inside RSRWithRPC.
		c, r := newCtx(t, freshTag("rpcconf-local"), "", core.MethodConfig{Name: "local"})
		sp := c.NewEndpoint().NewStartpoint()
		return &rpcFixture{callerC: c, caller: r, server: r, sp: sp, reliable: true}
	}},
	{"tcp", func(t *testing.T) *rpcFixture {
		tag := freshTag("rpcconf-tcp")
		serverC, server := newCtx(t, tag, "", core.MethodConfig{Name: "tcp"})
		callerC, caller := newCtx(t, tag, "", core.MethodConfig{Name: "tcp"})
		sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
		t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
		return &rpcFixture{callerC: callerC, caller: caller, server: server, sp: sp, reliable: true}
	}},
	{"udp", func(t *testing.T) *rpcFixture {
		tag := freshTag("rpcconf-udp")
		serverC, server := newCtx(t, tag, "", core.MethodConfig{Name: "udp"})
		callerC, caller := newCtx(t, tag, "", core.MethodConfig{Name: "udp"})
		sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
		t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
		return &rpcFixture{callerC: callerC, caller: caller, server: server, sp: sp, reliable: false}
	}},
	{"rudp", func(t *testing.T) *rpcFixture {
		tag := freshTag("rpcconf-rudp")
		serverC, server := newCtx(t, tag, "", core.MethodConfig{Name: "rudp"})
		callerC, caller := newCtx(t, tag, "", core.MethodConfig{Name: "rudp"})
		sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
		t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
		// The caller's rudp module needs polling for ACKs/retransmits even
		// when no Await is in flight (e.g. after a deferred server reply).
		t.Cleanup(callerC.StartPoller(100 * time.Microsecond))
		return &rpcFixture{callerC: callerC, caller: caller, server: server, sp: sp, reliable: true}
	}},
	{"secure", func(t *testing.T) *rpcFixture {
		tag := freshTag("rpcconf-secure")
		mc := func() core.MethodConfig {
			return core.MethodConfig{Name: "secure",
				Params: transport.Params{"key": secureTestKey, "inner": "tcp"}}
		}
		serverC, server := newCtx(t, tag, "", mc())
		callerC, caller := newCtx(t, tag, "", mc())
		sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
		t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
		return &rpcFixture{callerC: callerC, caller: caller, server: server, sp: sp, reliable: true}
	}},
	{"simnet", func(t *testing.T) *rpcFixture {
		tag := freshTag("rpcconf-sim")
		mc := func() core.MethodConfig {
			return core.MethodConfig{Name: "mpl",
				Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}
		}
		serverC, server := newCtx(t, tag, "rpcconf", mc())
		callerC, caller := newCtx(t, tag, "rpcconf", mc())
		sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
		t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
		return &rpcFixture{callerC: callerC, caller: caller, server: server, sp: sp, reliable: true}
	}},
	{"shm", func(t *testing.T) *rpcFixture {
		if !shm.Supported() {
			t.Skip("shm transport requires linux mmap/FIFO support")
		}
		tag := freshTag("rpcconf-shm")
		mc := func() core.MethodConfig {
			return core.MethodConfig{Name: "shm", Params: transport.Params{"dir": t.TempDir()}}
		}
		serverC, server := newCtx(t, tag, "", mc())
		callerC, caller := newCtx(t, tag, "", mc())
		sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
		t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
		t.Cleanup(callerC.StartPoller(100 * time.Microsecond))
		return &rpcFixture{callerC: callerC, caller: caller, server: server, sp: sp, reliable: true}
	}},
}

// callRetry runs one unary call, retrying on deadline expiry for unreliable
// transports (a dropped request or reply surfaces as a timeout).
func (fx *rpcFixture) callRetry(t *testing.T, method string, mkReq func() *buffer.Buffer) (*buffer.Buffer, error) {
	t.Helper()
	attempts, timeout := 1, 20*time.Second
	if !fx.reliable {
		attempts, timeout = 10, 2*time.Second
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		f, err := fx.caller.Call(fx.sp, method, mkReq(), CallOptions{Timeout: timeout})
		if err != nil {
			return nil, err
		}
		res, err := f.Await()
		if err == nil || !errors.Is(err, ErrDeadline) {
			return res, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// streamRetry collects a whole stream, retrying on deadline expiry.
func (fx *rpcFixture) streamRetry(t *testing.T, method string, want int) []int {
	t.Helper()
	attempts, timeout := 1, 20*time.Second
	if !fx.reliable {
		attempts, timeout = 10, 2*time.Second
	}
	for i := 0; i < attempts; i++ {
		s, err := fx.caller.CallStream(fx.sp, method, nil, CallOptions{Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for {
			ch, err := s.Recv()
			if err == io.EOF {
				return got
			}
			if err != nil {
				if errors.Is(err, ErrDeadline) && !fx.reliable {
					got = nil
					break // dropped chunk or end frame: retry the call
				}
				t.Fatalf("Recv: %v", err)
			}
			got = append(got, ch.Int())
		}
	}
	t.Fatalf("stream %q never completed within retry budget", method)
	return nil
}

func TestRPCConformance(t *testing.T) {
	for _, fc := range rpcFixtures {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			fx := fc.make(t)
			fx.server.Register("echo", echoHandler)
			fx.server.Register("fail", func(req *Request, r *Responder) {
				_ = r.Error(errors.New("nope"))
			})
			fx.server.Register("count", func(req *Request, r *Responder) {
				n := req.Payload.Int()
				for i := 0; i < n; i++ {
					b := buffer.New(8)
					b.PutInt(i)
					_ = r.Send(b)
				}
				_ = r.End()
			})
			fx.server.Register("black-hole", func(req *Request, r *Responder) {
				// Never replies; the caller's deadline is the only way out.
			})

			t.Run("roundtrip", func(t *testing.T) {
				res, err := fx.callRetry(t, "echo", func() *buffer.Buffer { return strBuf("ping") })
				if err != nil {
					t.Fatal(err)
				}
				if got := res.String(); got != "ping!" {
					t.Fatalf("reply = %q, want %q", got, "ping!")
				}
			})
			t.Run("remote-error", func(t *testing.T) {
				_, err := fx.callRetry(t, "fail", func() *buffer.Buffer { return nil })
				var re *RemoteError
				if !errors.As(err, &re) || re.Msg != "nope" {
					t.Fatalf("error = %v, want RemoteError(nope)", err)
				}
			})
			t.Run("streaming", func(t *testing.T) {
				const n = 5
				fx.server.Register("count", func(req *Request, r *Responder) {
					for i := 0; i < n; i++ {
						b := buffer.New(8)
						b.PutInt(i)
						_ = r.Send(b)
					}
					_ = r.End()
				})
				got := fx.streamRetry(t, "count", n)
				if len(got) != n {
					t.Fatalf("received %d chunks, want %d (%v)", len(got), n, got)
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("chunk %d carried %d", i, v)
					}
				}
			})
			t.Run("deadline", func(t *testing.T) {
				f, err := fx.caller.Call(fx.sp, "black-hole", nil,
					CallOptions{Timeout: 300 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				_, err = f.Await()
				if !errors.Is(err, ErrDeadline) {
					t.Fatalf("error = %v, want ErrDeadline", err)
				}
			})
		})
	}
}

// TestLargeRequestFragmentedRUDP sends an argument far bigger than rudp's
// datagram limit as one request: the request RSR fragments on the caller's
// side and reassembles on the server's, and the call completes with the full
// argument.
func TestLargeRequestFragmentedRUDP(t *testing.T) {
	tag := freshTag("rpc-large-rudp")
	serverC, server := newCtx(t, tag, "", core.MethodConfig{Name: "rudp"})
	callerC, caller := newCtx(t, tag, "", core.MethodConfig{Name: "rudp"})
	sp := transferStartpoint(t, serverC.NewEndpoint().NewStartpoint(), callerC)
	t.Cleanup(serverC.StartPoller(100 * time.Microsecond))
	t.Cleanup(callerC.StartPoller(100 * time.Microsecond))

	server.Register("sum", sumHandler)
	const n = 256 << 10
	req, sum := largeArg(n)
	f, err := caller.Call(sp, "sum", req, CallOptions{Timeout: 30 * time.Second})
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
	if got := callerC.Stats().Get("frag.messages.sent"); got == 0 {
		t.Fatal("request frame was not fragmented over rudp")
	}
	if n := serverC.Stats().Get("frag.assembled"); n == 0 {
		t.Fatal("server never reassembled a fragmented message")
	}
}
