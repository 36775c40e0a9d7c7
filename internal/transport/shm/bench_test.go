//go:build linux

// Module-level benchmarks for the shared-memory transport. These measure the
// raw ring path (Dial/Send/Poll) without the core's wire framing.
// BenchmarkShmPingPong/64B is the number CI pins; BenchmarkShmBatchSend has no
// counterpart among the repository benchmark's probes (bench/README.md), which
// report the ring's round trip and bulk bandwidth as shm.rtt_ns and
// shm.bulk_mb_s.
package shm

import (
	"fmt"
	"sync/atomic"
	"testing"

	"nexus/internal/transport"
)

// countSink counts deliveries without retaining frames, so b.N iterations do
// not accumulate memory the way the test helpers' copying sink would.
type countSink struct {
	n     atomic.Int64
	bytes atomic.Int64
}

func (s *countSink) Deliver(f []byte) {
	s.n.Add(1)
	s.bytes.Add(int64(len(f)))
}

// benchPair wires two modules under b's temp dir and dials one conn in each
// direction (the reverse dial reuses ring 1 of the same segment).
func benchPair(b *testing.B, params transport.Params) (a, c *Module, aSink, cSink *countSink, toC, toA transport.Conn) {
	b.Helper()
	mk := func(ctx transport.ContextID, sink transport.Sink) (*Module, *transport.Descriptor) {
		p := transport.Params{"dir": b.TempDir()}
		for k, v := range params {
			p[k] = v
		}
		m := New(values(p))
		desc, err := m.Init(transport.Env{Context: ctx, Sink: sink})
		if err != nil {
			b.Fatalf("Init: %v", err)
		}
		b.Cleanup(func() { m.Close() })
		return m, desc
	}
	aSink, cSink = &countSink{}, &countSink{}
	a, aDesc := mk(1, aSink)
	c, cDesc := mk(2, cSink)
	toC, err := a.Dial(*cDesc)
	if err != nil {
		b.Fatalf("Dial a→c: %v", err)
	}
	b.Cleanup(func() { toC.Close() })
	toA, err = c.Dial(*aDesc)
	if err != nil {
		b.Fatalf("Dial c→a: %v", err)
	}
	b.Cleanup(func() { toA.Close() })
	return a, c, aSink, cSink, toC, toA
}

// BenchmarkShmPingPong is a full round trip: a frame through one ring, the
// reply through the paired reverse ring, both sides polled from this thread.
// ns/op is the round-trip time; halve for the one-way figure.
func BenchmarkShmPingPong(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			a, c, aSink, cSink, toC, toA := benchPair(b, nil)
			payload := pattern(0x42, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := toC.Send(payload); err != nil {
					b.Fatal(err)
				}
				for cSink.n.Load() < int64(i+1) {
					c.Poll()
				}
				if err := toA.Send(payload); err != nil {
					b.Fatal(err)
				}
				for aSink.n.Load() < int64(i+1) {
					a.Poll()
				}
			}
		})
	}
}

// BenchmarkShmBatchSend measures the amortized cost of SendBatch (one
// doorbell for the whole batch), draining after each train.
func BenchmarkShmBatchSend(b *testing.B) {
	const frames, size = 32, 1024
	_, c, _, cSink, toC, _ := benchPair(b, nil)
	bs := toC.(transport.BatchSender)
	batch := make([][]byte, frames)
	for i := range batch {
		batch[i] = pattern(byte(i), size)
	}
	b.SetBytes(frames * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := bs.SendBatch(batch); n != frames || err != nil {
			b.Fatalf("SendBatch = %d, %v", n, err)
		}
		for cSink.n.Load() < int64(i+1)*frames {
			c.Poll()
		}
	}
}
