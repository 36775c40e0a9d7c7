// Benchmarks regenerating the paper's tables and figures. Performance of the
// library itself is measured by the repository benchmark (bench/README.md),
// not here.
//
// Two families:
//
//   - Model benches (BenchmarkFigure4*, BenchmarkFigure6*, BenchmarkTable1)
//     drive the calibrated virtual-time models and report the paper's
//     numbers as custom metrics (µs-one-way, s-per-step). These regenerate
//     the published curves exactly and deterministically.
//   - Real benches (BenchmarkPollCost*, BenchmarkMPIOverhead,
//     BenchmarkStartpointWeight, BenchmarkSelectionPolicy) put today's
//     constants beside the paper's §3.1, §3.3 and §4 text.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package nexus_test

import (
	"sync/atomic"
	"testing"
	"time"

	"nexus"
	"nexus/internal/model"
)

// ---------------------------------------------------------------------------
// Figure 4: one-way ping-pong time vs message size (model).

func benchFigure4(b *testing.B, sizes []int) {
	p := model.DefaultSP2()
	var pts []model.PingPongPoint
	for i := 0; i < b.N; i++ {
		pts = model.Figure4(p, sizes, 200)
	}
	for _, pt := range pts {
		n := float64(pt.Size)
		b.ReportMetric(float64(pt.RawMPL.Nanoseconds())/1e3, "µs-raw@"+itoa(int(n)))
		b.ReportMetric(float64(pt.NexusMPL.Nanoseconds())/1e3, "µs-nexus@"+itoa(int(n)))
		b.ReportMetric(float64(pt.NexusMPLTCP.Nanoseconds())/1e3, "µs-nexus+tcp@"+itoa(int(n)))
	}
}

// BenchmarkFigure4Small regenerates Figure 4 (left): sizes 0–1000 B.
func BenchmarkFigure4Small(b *testing.B) { benchFigure4(b, []int{0, 500, 1000}) }

// BenchmarkFigure4Large regenerates Figure 4 (right): the wide size range.
func BenchmarkFigure4Large(b *testing.B) { benchFigure4(b, []int{16384, 1 << 20}) }

// ---------------------------------------------------------------------------
// Figure 6: dual ping-pong one-way times vs skip_poll (model).

func benchFigure6(b *testing.B, size int) {
	p := model.DefaultSP2()
	skips := []int{1, 20, 1000}
	var pts []model.DualPoint
	for i := 0; i < b.N; i++ {
		pts = model.Figure6(p, skips, size, 1000)
	}
	for _, pt := range pts {
		b.ReportMetric(float64(pt.MPLOneWay.Nanoseconds())/1e3, "µs-mpl@skip"+itoa(pt.Skip))
		b.ReportMetric(float64(pt.TCPOneWay.Nanoseconds())/1e3, "µs-tcp@skip"+itoa(pt.Skip))
	}
}

// BenchmarkFigure6Zero regenerates Figure 6 (left): 0-byte messages.
func BenchmarkFigure6Zero(b *testing.B) { benchFigure6(b, 0) }

// BenchmarkFigure6TenKB regenerates Figure 6 (right): 10 KB messages.
func BenchmarkFigure6TenKB(b *testing.B) { benchFigure6(b, 10*1024) }

// ---------------------------------------------------------------------------
// Table 1: coupled-model strategies (model).

// BenchmarkTable1 regenerates Table 1 and reports seconds-per-timestep for
// each strategy as custom metrics.
func BenchmarkTable1(b *testing.B) {
	cfg := model.DefaultCoupled()
	var rows []model.Table1Row
	for i := 0; i < b.N; i++ {
		rows = model.Table1(cfg)
	}
	for _, r := range rows {
		b.ReportMetric(r.SecondsPerStep, "s/step:"+compact(r.Experiment))
	}
}

func compact(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			c = '-'
		}
		if c == '(' || c == ')' {
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// §3.3 poll-cost asymmetry on real transports: the per-pass cost of an
// inexpensive method vs an expensive one (the 15 µs probe vs 100 µs select
// of the paper).

// BenchmarkPollCostInproc measures one poll pass over an idle inproc module.
func BenchmarkPollCostInproc(b *testing.B) {
	ctx, err := nexus.NewContext(nexus.Options{Methods: []nexus.MethodConfig{{Name: "inproc"}}})
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Poll()
	}
}

// BenchmarkPollCostTCP measures one poll pass over an idle TCP module with a
// live (idle) inbound connection — each pass is a genuine readiness system
// call.
func BenchmarkPollCostTCP(b *testing.B) {
	recv, err := nexus.NewContext(nexus.Options{Methods: []nexus.MethodConfig{{Name: "tcp"}}})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	send, err := nexus.NewContext(nexus.Options{Methods: []nexus.MethodConfig{{Name: "tcp"}}})
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	// Open a connection (one RSR) so the poll loop has an fd to scan.
	var got atomic.Int64
	ep := recv.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { got.Add(1) }))
	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), send)
	if err != nil {
		b.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		recv.Poll()
	}
	if got.Load() == 0 {
		b.Fatal("setup RSR never arrived")
	}
	// Pin tcp to a probe on every pass: left to the reactor (the Linux
	// default) an idle pass never touches the socket, and this bench exists
	// to price the probe the paper's skip_poll amortizes.
	if err := recv.SetSkipPoll("tcp", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recv.Poll()
	}
}

// ---------------------------------------------------------------------------
// §4 layering overhead: the mini-MPI ping-pong vs a raw-core ping-pong (the
// paper reports ~6% for MPICH-on-Nexus vs MPICH-on-MPL).

// BenchmarkMPIOverhead measures a two-rank MPI ping-pong over inproc; compare
// with BenchmarkRSRAllocsInproc, the raw RSR round trip over the same method,
// for the layering cost.
func BenchmarkMPIOverhead(b *testing.B) {
	machine, err := nexus.NewMachine(nexus.UniformMachine(2, "p", nexus.MethodConfig{Name: "inproc"}))
	if err != nil {
		b.Fatal(err)
	}
	defer machine.Close()
	world, err := nexus.NewWorld(machine)
	if err != nil {
		b.Fatal(err)
	}
	payload := nexus.NewBuffer(64)
	payload.PutRaw(make([]byte, 64))

	done := make(chan error, 1)
	go func() {
		c := world.Comm(1)
		for i := 0; i < b.N; i++ {
			m, err := c.Recv(0, 1)
			if err != nil {
				done <- err
				return
			}
			if err := c.Send(0, 2, m.Buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c := world.Comm(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Ablation: startpoint weight — full descriptor tables vs lightweight
// encoding (§3.1's optimization for tightly coupled systems).

func BenchmarkStartpointWeight(b *testing.B) {
	ctx, err := nexus.NewContext(nexus.Options{Methods: []nexus.MethodConfig{
		{Name: "inproc"}, {Name: "tcp"}, {Name: "udp"},
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	sp := ctx.NewEndpoint().NewStartpoint()

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			buf := nexus.NewBuffer(256)
			sp.Encode(buf)
			n = buf.Len()
		}
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("lite", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			buf := nexus.NewBuffer(256)
			sp.EncodeLite(buf)
			n = buf.Len()
		}
		b.ReportMetric(float64(n), "bytes")
	})
}

// ---------------------------------------------------------------------------
// Ablation: selection policy cost — ordered first-applicable vs poll-cost
// ranking.

func BenchmarkSelectionPolicy(b *testing.B) {
	mkPair := func(sel nexus.Selector) (*nexus.Context, *nexus.Startpoint) {
		recv, err := nexus.NewContext(nexus.Options{Methods: []nexus.MethodConfig{
			{Name: "inproc"}, {Name: "tcp"}, {Name: "udp"},
		}})
		if err != nil {
			b.Fatal(err)
		}
		send, err := nexus.NewContext(nexus.Options{
			Selector: sel,
			Methods: []nexus.MethodConfig{
				{Name: "inproc"}, {Name: "tcp"}, {Name: "udp"},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { recv.Close(); send.Close() })
		ep := recv.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) {}))
		sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), send)
		if err != nil {
			b.Fatal(err)
		}
		return send, sp
	}
	b.Run("first-applicable", func(b *testing.B) {
		_, sp := mkPair(nexus.FirstApplicable)
		for i := 0; i < b.N; i++ {
			sp.Close() // force reselection
			if _, err := sp.SelectMethod(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cheapest-poll", func(b *testing.B) {
		_, sp := mkPair(nexus.CheapestPoll)
		for i := 0; i < b.N; i++ {
			sp.Close()
			if _, err := sp.SelectMethod(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
