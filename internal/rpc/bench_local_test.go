package rpc

import (
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
)

// BenchmarkLocalCallOverhead isolates the RPC layer's pure CPU cost: the
// synchronous local transport delivers in the caller's stack frame, so the
// difference between its two sub-benchmarks is correlation, future, and
// responder machinery alone — no polling or cross-goroutine scheduling. "raw"
// is the same two frames as plain RSRs; "rpc" is Call + Await on an echo
// method. CI pins their ratio.
func BenchmarkLocalCallOverhead(b *testing.B) {
	newContext := func(b *testing.B) *core.Context {
		c, err := core.NewContext(core.Options{Methods: []core.MethodConfig{{Name: "local"}}})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}
	payload := buffer.New(64)
	payload.PutRaw(make([]byte, 64))

	b.Run("raw", func(b *testing.B) {
		c := newContext(b)
		n := 0
		sp := c.NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { n++ })).NewStartpoint()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sp.RSR("", payload); err != nil {
				b.Fatal(err)
			}
			if err := sp.RSR("", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rpc", func(b *testing.B) {
		c := newContext(b)
		r := Enable(c, core.RPCConfig{})
		r.Register("echo", func(req *Request, rp *Responder) {
			_ = rp.Reply(req.Payload)
		})
		sp := c.NewEndpoint().NewStartpoint()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := r.Call(sp, "echo", payload, CallOptions{Timeout: 30 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Await(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
