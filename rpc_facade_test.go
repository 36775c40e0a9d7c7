package nexus_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"nexus"
)

var rpcFacadeSeq atomic.Uint64

// rpcFacadePair builds a caller/server context pair over an isolated inproc
// exchange with the RPC layer enabled through Options.RPC.
func rpcFacadePair(t *testing.T) (caller, server *nexus.Context, sp *nexus.Startpoint) {
	t.Helper()
	tag := fmt.Sprintf("rpc-facade-%s-%d", t.Name(), rpcFacadeSeq.Add(1))
	mk := func() *nexus.Context {
		c, err := nexus.NewContext(nexus.Options{
			Methods: []nexus.MethodConfig{{Name: "inproc", Params: nexus.Params{"exchange": tag}}},
			RPC:     nexus.RPCConfig{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	server = mk()
	caller = mk()
	got, err := nexus.TransferStartpoint(server.NewEndpoint().NewStartpoint(), caller)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.StartPoller(0))
	return caller, server, got
}

func TestFacadeRPCRoundTrip(t *testing.T) {
	_, server, sp := rpcFacadePair(t)
	if err := nexus.RegisterRPC(server, "greet", func(req *nexus.RPCRequest, r *nexus.Responder) {
		out := nexus.NewBuffer(64)
		out.PutString("hello, " + req.Payload.String())
		_ = r.Reply(out)
	}); err != nil {
		t.Fatal(err)
	}
	req := nexus.NewBuffer(16)
	req.PutString("world")
	f, err := nexus.Call(sp, "greet", req, nexus.CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Await()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "hello, world" {
		t.Fatalf("reply = %q", got)
	}
}

func TestFacadeRPCStreaming(t *testing.T) {
	_, server, sp := rpcFacadePair(t)
	_ = nexus.RegisterRPC(server, "squares", func(req *nexus.RPCRequest, r *nexus.Responder) {
		n := req.Payload.Int()
		for i := 0; i < n; i++ {
			b := nexus.NewBuffer(8)
			b.PutInt(i * i)
			_ = r.Send(b)
		}
		_ = r.End()
	})
	req := nexus.NewBuffer(8)
	req.PutInt(4)
	s, err := nexus.CallStream(sp, "squares", req, nexus.CallOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4, 9}
	for _, w := range want {
		ch, err := s.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := ch.Int(); got != w {
			t.Fatalf("chunk = %d, want %d", got, w)
		}
	}
	if _, err := s.Recv(); err != io.EOF {
		t.Fatalf("final Recv = %v, want io.EOF", err)
	}
}

func TestFacadeRPCDeadlineVocabulary(t *testing.T) {
	_, server, sp := rpcFacadePair(t)
	_ = nexus.RegisterRPC(server, "stall", func(req *nexus.RPCRequest, r *nexus.Responder) {})
	f, err := nexus.Call(sp, "stall", nil, nexus.CallOptions{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Await()
	if !errors.Is(err, nexus.ErrDeadline) {
		t.Fatalf("error %v does not match nexus.ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not match context.DeadlineExceeded", err)
	}
}

func TestFacadeRPCNotEnabled(t *testing.T) {
	c, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: "local"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sp := c.NewEndpoint().NewStartpoint()
	if _, err := nexus.Call(sp, "x", nil, nexus.CallOptions{}); !errors.Is(err, nexus.ErrRPCNotEnabled) {
		t.Fatalf("Call without Options.RPC = %v, want ErrRPCNotEnabled", err)
	}
	// EnableRPC retrofits the layer.
	nexus.EnableRPC(c)
	_ = nexus.RegisterRPC(c, "echo", func(req *nexus.RPCRequest, r *nexus.Responder) {
		_ = r.Reply(nil)
	})
	f, err := nexus.Call(sp, "echo", nil, nexus.CallOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Await(); err != nil {
		t.Fatal(err)
	}
}
