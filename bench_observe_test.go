// Observability-overhead benchmarks.
//
// BenchmarkTraceOverhead pins the cost contract of the obsv subsystem on the
// local RSR fast path: with observability off the only addition is one atomic
// mode load and a branch (allocs/op and ns/op must match the seed numbers in
// EXPERIMENTS.md); stats adds clock reads and histogram updates; trace
// additionally stamps a 16-byte wire extension and appends ring events.
//
// Run with:
//
//	go test -bench=BenchmarkTraceOverhead -benchmem
package nexus_test

import (
	"sync/atomic"
	"testing"

	"nexus"
)

func BenchmarkTraceOverhead(b *testing.B) {
	modes := []struct {
		name   string
		enable func(*nexus.Context)
	}{
		{"off", func(*nexus.Context) {}},
		{"stats", (*nexus.Context).EnableStats},
		{"trace", func(c *nexus.Context) { c.EnableTracing(0) }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			ctx, err := nexus.NewContext(nexus.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer ctx.Close()
			m.enable(ctx)
			var got atomic.Int64
			ep := ctx.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { got.Add(1) }))
			sp := ep.NewStartpoint()
			payload := nexus.NewBuffer(64)
			payload.PutRaw(make([]byte, 64))
			if err := sp.RSR("", payload); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sp.RSR("", payload); err != nil {
					b.Fatal(err)
				}
			}
			if got.Load() < int64(b.N) {
				b.Fatalf("delivered %d of %d", got.Load(), b.N)
			}
		})
	}
}
