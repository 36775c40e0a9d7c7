package rpc

import (
	"sort"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/core"
)

// localCallFixture is one context on the synchronous local method carrying
// both halves of the comparison: raw is the two frames of a round trip as
// plain RSRs, call is Call + Await on an echo method. Delivery happens in the
// caller's stack frame, so the difference between the two is correlation,
// future and responder machinery alone — no polling, no scheduling.
func localCallFixture(t testing.TB) (raw, call func()) {
	c, err := core.NewContext(core.Options{Methods: []core.MethodConfig{{Name: "local"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	payload := buffer.New(64)
	payload.PutRaw(make([]byte, 64))

	n := 0
	rawSP := c.NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { n++ })).NewStartpoint()
	raw = func() {
		for i := 0; i < 2; i++ {
			if err := rawSP.RSR("", payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := Enable(c)
	r.Register("echo", func(req *Request, rp *Responder) { _ = rp.Reply(req.Payload) })
	sp := c.NewEndpoint().NewStartpoint()
	call = func() {
		f, err := r.Call(sp, "echo", payload, CallOptions{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Await(); err != nil {
			t.Fatal(err)
		}
	}
	return raw, call
}

// BenchmarkLocalCallOverhead reports rpc/raw, which CI pins: the cost of one
// unary call over the cost of the same two frames sent as raw RSRs. The two
// are timed in alternating blocks and the metric is the median of the
// per-pair ratios, so machine-speed drift between measurement windows
// cancels: run after run on a noisy 2-vCPU VM the median stays within 5%
// (2.9–3.2), where the ratio of two separately timed sub-benchmarks read
// 2.4–4.1. Run with -benchtime=Nx; N/1000 pairs are measured.
func BenchmarkLocalCallOverhead(b *testing.B) {
	raw, call := localCallFixture(b)
	const block = 1000
	var ratios, rawNs, callNs []float64
	b.ResetTimer()
	for done := 0; done < b.N; done += block {
		t0 := time.Now()
		for i := 0; i < block; i++ {
			raw()
		}
		t1 := time.Now()
		for i := 0; i < block; i++ {
			call()
		}
		t2 := time.Now()
		rawNs = append(rawNs, float64(t1.Sub(t0))/block)
		callNs = append(callNs, float64(t2.Sub(t1))/block)
		ratios = append(ratios, float64(t2.Sub(t1))/float64(t1.Sub(t0)))
	}
	median := func(v []float64) float64 { sort.Float64s(v); return v[len(v)/2] }
	b.ReportMetric(median(rawNs), "raw-ns/op")
	b.ReportMetric(median(callNs), "rpc-ns/op")
	b.ReportMetric(median(ratios), "rpc/raw")
}

// TestLocalCallAllocs pins what a timing ratio cannot resolve. Two raw RSRs
// allocate the two *Buffer wrappers handed to the handler. A unary call
// allocates three objects: the Future in Call, the inboundCall record in
// serve, and the copy of the reply payload that Await returns. A new
// allocation anywhere on the Call/Reply/Await path fails here.
func TestLocalCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	raw, call := localCallFixture(t)
	raw() // warm up: selection + pools
	call()
	if n := testing.AllocsPerRun(200, raw); n > 2 {
		t.Errorf("two local RSRs allocate %.1f per round trip, budget is 2", n)
	}
	if n := testing.AllocsPerRun(200, call); n > 3 {
		t.Errorf("local Call + Await allocates %.1f per call, budget is 3", n)
	}
}
