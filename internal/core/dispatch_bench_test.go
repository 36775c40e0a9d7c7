package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

// dispatchWork simulates a handler with real work attached (~a few hundred
// nanoseconds of xorshift), so the parallel benchmark measures how much
// handler execution the engine can overlap, not just queue overhead.
//
//go:noinline
func dispatchWork(seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < 400; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// BenchmarkDispatchParallel drives Context.dispatch from GOMAXPROCS
// goroutines against 1/4/16 endpoints, comparing inline delivery (handlers on
// the dispatching goroutine, the old serial model) with the sharded worker
// pool (Threaded). Per-endpoint ordering is preserved in both modes.
func BenchmarkDispatchParallel(b *testing.B) {
	for _, mode := range []string{"inline", "sharded"} {
		for _, numEP := range []int{1, 4, 16} {
			mode := mode
			numEP := numEP
			b.Run(fmt.Sprintf("mode=%s/eps=%d", mode, numEP), func(b *testing.B) {
				opts := Options{}
				if mode == "sharded" {
					opts.Threaded = true
				}
				c, err := NewContext(opts)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				var done atomic.Int64
				frames := make([][]byte, numEP)
				for i := 0; i < numEP; i++ {
					ep := c.NewEndpoint(WithHandler(func(_ *Endpoint, pb *buffer.Buffer) {
						if dispatchWork(uint64(pb.Int64())) == 0 {
							panic("unreachable")
						}
						done.Add(1)
					}))
					frames[i] = encodeRSR(b, c.ID(), ep.ID(), "", int64(i))
				}
				var next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := int(next.Add(1))
					for pb.Next() {
						c.dispatch(nil, frames[i%numEP])
						i++
					}
				})
				// Include the queue drain, so sharded mode is charged for all
				// b.N handler executions just like inline mode.
				for done.Load() < int64(b.N) {
					runtime.Gosched()
				}
			})
		}
	}
}

// nullModule is a do-nothing transport: Send succeeds without work or locks,
// so BenchmarkSendContention measures the startpoint send path itself.
type nullModule struct{}

func (nullModule) Name() string { return "null" }
func (nullModule) Init(env transport.Env) (*transport.Descriptor, error) {
	return &transport.Descriptor{Method: "null", Context: env.Context,
		Attrs: map[string]string{"addr": "0"}}, nil
}
func (nullModule) Applicable(r transport.Descriptor) bool            { return r.Method == "null" }
func (nullModule) Dial(transport.Descriptor) (transport.Conn, error) { return nullConn{}, nil }
func (nullModule) Poll() (int, error)                                { return 0, nil }
func (nullModule) Close() error                                      { return nil }

type nullConn struct{}

func (nullConn) Send([]byte) error { return nil }
func (nullConn) Method() string    { return "null" }
func (nullConn) Close() error      { return nil }

// BenchmarkSendContention hammers one startpoint with RSRs from GOMAXPROCS
// goroutines over a free transport: what remains is the send path's own
// synchronization — one load of the link set, then per link the binding load
// and health-generation check (link.current); no lock is taken.
func BenchmarkSendContention(b *testing.B) {
	reg := transport.NewRegistry()
	reg.Register("null", nil, func(transport.Values) (transport.Module, error) { return nullModule{}, nil })
	reg.Register("local", transport.Default.Params("local"), func(v transport.Values) (transport.Module, error) {
		return transport.Default.New("local", v.Params)
	})
	mk := func() *Context {
		c, err := NewContext(Options{registry: reg, Methods: []MethodConfig{{Name: "null"}}})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}
	recv := mk()
	send := mk()
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp, err := TransferStartpoint(ep.NewStartpoint(), send)
	if err != nil {
		b.Fatal(err)
	}
	payload := buffer.New(64)
	payload.PutInt64(7)
	if err := sp.RSR("", payload); err != nil { // warm up selection
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := sp.RSR("", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
