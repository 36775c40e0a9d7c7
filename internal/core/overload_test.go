package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

// These tests drive the overload-survival layer end to end: several sender
// contexts flood one threaded receiver over a shared simnet fabric at many
// times its service rate, with credit-based flow control bounding what each
// sender may have in flight and the per-sender fair lanes deciding who gets
// served. The properties pinned here are the PR's acceptance criteria:
// per-sender throughput stays within 2x of any other sender, control-class
// traffic is never shed while bulk is being dropped, and the flood is absorbed
// by refusing work (ErrNoCredit, rsr.shed.bulk) rather than by buffering it.

// spin busy-waits for roughly d, standing in for handler CPU work. Sleeping
// would free the lane worker's thread and hide queueing; spinning keeps the
// receiver genuinely saturated.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// rigSeq makes fabric tags unique across tests and -count=N repetitions in
// one process, so a rig never sees a previous run's fabric nodes.
var rigSeq atomic.Uint64

// overloadRig is one saturated receiver plus n sender contexts on a shared
// simnet fabric. Flow control is on everywhere with a deliberately small
// window; the receiver's "work" handler burns spinFor per delivery so the
// senders can outrun it at will.
type overloadRig struct {
	recv      *Context
	senders   []*Context
	ep        *Endpoint
	delivered []atomic.Uint64 // per-sender deliveries, counted in the handler
	stopPoll  func()
}

func newOverloadRig(tb testing.TB, tag string, nSenders int, spinFor time.Duration) *overloadRig {
	tb.Helper()
	tag = fmt.Sprintf("%s-%d", tag, rigSeq.Add(1))
	methods := func() []MethodConfig {
		return []MethodConfig{{Name: "mpl", Params: transport.Params{
			"fabric": tag, "poll_cost": "1us", "latency": "0", "bandwidth": "0"}}}
	}
	fc := defaultFlow // used whole: override fields, never build a partial literal
	fc.windowBytes = 32 << 10
	fc.windowFrames = 32
	fc.probeInterval = 2 * time.Millisecond
	recv, err := NewContext(Options{
		Partition: "p0",
		Methods:   methods(),
		Threaded:  true,
		dispatch:  dispatchConfig{lanes: 2, queueDepth: 64},
		Flow:      fc,
		errorLog:  func(error) {}, // shed bulk frames are logged; expected here
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := &overloadRig{recv: recv, delivered: make([]atomic.Uint64, nSenders)}
	r.ep = recv.NewEndpoint()
	recv.RegisterHandler("work", func(_ *Endpoint, b *buffer.Buffer) {
		i := b.Int64()
		spin(spinFor)
		r.delivered[i].Add(1)
	})
	for i := 0; i < nSenders; i++ {
		s, err := NewContext(Options{Partition: "p0", Methods: methods(), Flow: fc})
		if err != nil {
			tb.Fatal(err)
		}
		r.senders = append(r.senders, s)
		// Standalone credit grants travel receiver->sender and need the
		// sender's descriptor table for the reverse route.
		recv.RegisterPeerTable(s.AdvertisedTable())
	}
	r.stopPoll = recv.StartPoller(0)
	return r
}

func (r *overloadRig) close() {
	r.stopPoll()
	for _, s := range r.senders {
		s.Close()
	}
	r.recv.Close()
}

// bulkStartpoint builds sender i's ClassBulk startpoint to the rig endpoint.
// Must be called from the test goroutine (transferStartpoint can Fatal).
func (r *overloadRig) bulkStartpoint(tb testing.TB, i int) *Startpoint {
	tb.Helper()
	sp := transferStartpoint(tb, r.ep.NewStartpoint(), r.senders[i], false)
	sp.SetClass(ClassBulk)
	return sp
}

// floodBulk is one sender's saturation loop: offer ClassBulk RSRs as fast as
// credit refusal allows while keep() holds. A refusal polls the sender context
// so grants already sitting in the fabric are picked up before the next try,
// then yields: on a single-CPU host a refused sender that keeps spinning
// through its scheduler slice starves the very poller and grantor goroutines
// it is waiting on.
func (r *overloadRig) floodBulk(tb testing.TB, i int, sp *Startpoint, keep func(offered uint64) bool) (offered, refused uint64) {
	b := buffer.New(16)
	b.PutInt64(int64(i))
	for keep(offered) {
		offered++
		err := sp.RSR("work", b)
		switch {
		case err == nil:
		case errors.Is(err, ErrNoCredit):
			refused++
			r.senders[i].tryPoll()
			runtime.Gosched()
		default:
			tb.Errorf("sender %d: %v", i, err)
			return offered, refused
		}
	}
	return offered, refused
}

func (r *overloadRig) sumDelivered() uint64 {
	var n uint64
	for i := range r.delivered {
		n += r.delivered[i].Load()
	}
	return n
}

// drainReceiver waits until the receiver has worked off everything in flight:
// the dispatch lanes report empty and the delivery count stops moving.
func (r *overloadRig) drainReceiver(tb testing.TB) {
	tb.Helper()
	depth := r.recv.stats.Gauge("dispatch.lane.depth")
	deadline := time.Now().Add(10 * time.Second)
	last := r.sumDelivered()
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := r.sumDelivered()
		if cur == last && depth.Load() == 0 {
			return
		}
		last = cur
	}
	tb.Fatalf("receiver never drained: %d delivered, lane depth %d",
		r.sumDelivered(), depth.Load())
}

// fairnessBounds returns the smallest and largest per-sender delivery count.
func (r *overloadRig) fairnessBounds() (lo, hi uint64) {
	lo = ^uint64(0)
	for i := range r.delivered {
		d := r.delivered[i].Load()
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

// TestOverloadChaos is the acceptance scenario: four bulk senders flood one
// receiver at far past its service rate while each sender also keeps a
// control-class ping stream going. The overload layer must (a) keep per-sender
// bulk throughput within 2x of any other sender, (b) deliver every control
// ping even while bulk is being shed, and (c) absorb the excess by shedding —
// never by unbounded buffering.
func TestOverloadChaos(t *testing.T) {
	const nSenders = 4
	r := newOverloadRig(t, "overload-chaos", nSenders, 20*time.Microsecond)
	defer r.close()

	var pingGot [nSenders]atomic.Uint64
	r.recv.RegisterHandler("ping", func(_ *Endpoint, b *buffer.Buffer) {
		pingGot[b.Int64()].Add(1)
	})
	bulkSPs := make([]*Startpoint, nSenders)
	pingSPs := make([]*Startpoint, nSenders)
	for i := 0; i < nSenders; i++ {
		bulkSPs[i] = r.bulkStartpoint(t, i)
		pingSPs[i] = transferStartpoint(t, r.ep.NewStartpoint(), r.senders[i], false)
		pingSPs[i].SetClass(ClassControl)
	}

	const dur = 300 * time.Millisecond
	start := time.Now()
	running := func(uint64) bool { return time.Since(start) < dur }
	offered := make([]uint64, nSenders)
	refused := make([]uint64, nSenders)
	pingSent := make([]uint64, nSenders)
	var wg sync.WaitGroup
	for i := 0; i < nSenders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			offered[i], refused[i] = r.floodBulk(t, i, bulkSPs[i], running)
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := buffer.New(16)
			b.PutInt64(int64(i))
			for time.Since(start) < dur {
				if err := pingSPs[i].RSR("ping", b); err != nil {
					t.Errorf("sender %d ping: %v", i, err)
					return
				}
				pingSent[i]++
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	r.drainReceiver(t)

	// (b) Control traffic survived intact: every ping sent was delivered, and
	// no context shed a single control-class frame.
	for i := 0; i < nSenders; i++ {
		if got := pingGot[i].Load(); got != pingSent[i] {
			t.Errorf("sender %d: %d/%d control pings delivered", i, got, pingSent[i])
		}
	}
	for _, c := range append([]*Context{r.recv}, r.senders...) {
		if n := c.stats.Counter("rsr.shed.control").Load(); n != 0 {
			t.Errorf("context %d shed %d control frames", c.ID(), n)
		}
	}

	// (a) Fairness: no sender got more than 2x another's deliveries.
	lo, hi := r.fairnessBounds()
	if lo == 0 {
		t.Fatalf("a sender was starved completely: deliveries %v", r.deliveredSnapshot())
	}
	if hi > 2*lo {
		t.Errorf("per-sender throughput spread %d..%d exceeds 2x: %v", lo, hi, r.deliveredSnapshot())
	}

	// (c) The flood was absorbed by refusing/shedding bulk, not by buffering:
	// offered far exceeds delivered, sheds were counted, and the grantor was
	// actively re-opening windows the whole time.
	var totOffered, totRefused, shedBulk uint64
	for i := 0; i < nSenders; i++ {
		totOffered += offered[i]
		totRefused += refused[i]
	}
	for _, c := range append([]*Context{r.recv}, r.senders...) {
		shedBulk += c.stats.Counter("rsr.shed.bulk").Load()
	}
	if totRefused == 0 || shedBulk == 0 {
		t.Errorf("overload never shed: %d refusals, rsr.shed.bulk total %d", totRefused, shedBulk)
	}
	if totDelivered := r.sumDelivered(); totOffered <= totDelivered {
		t.Errorf("offered %d vs delivered %d: receiver was never actually saturated",
			totOffered, totDelivered)
	}
	if n := r.recv.stats.Counter("flow.grants.sent").Load(); n == 0 {
		t.Error("receiver issued no credit grants under load")
	}
	t.Logf("offered %v refused %v delivered %v", offered, refused, r.deliveredSnapshot())
	t.Logf("recv: grants.sent=%d probes.recv=%d grants.unroutable=%d shed.bulk=%d rsr.recv=%d",
		r.recv.stats.Counter("flow.grants.sent").Load(),
		r.recv.stats.Counter("flow.probes.recv").Load(),
		r.recv.stats.Counter("flow.grants.unroutable").Load(),
		r.recv.stats.Counter("rsr.shed.bulk").Load(),
		r.recv.stats.Counter("rsr.recv").Load())
	for i, s := range r.senders {
		t.Logf("sender %d: grants.recv=%d probes.sent=%d shed.bulk=%d", i,
			s.stats.Counter("flow.grants.recv").Load(),
			s.stats.Counter("flow.probes.sent").Load(),
			s.stats.Counter("rsr.shed.bulk").Load())
	}
}

func (r *overloadRig) deliveredSnapshot() []uint64 {
	out := make([]uint64, len(r.delivered))
	for i := range r.delivered {
		out[i] = r.delivered[i].Load()
	}
	return out
}

// TestFairnessTwoSenders is the satellite's minimal fairness check: two
// saturating senders each end within 2x of the other.
func TestFairnessTwoSenders(t *testing.T) {
	r := newOverloadRig(t, "overload-fair2", 2, 20*time.Microsecond)
	defer r.close()
	sps := []*Startpoint{r.bulkStartpoint(t, 0), r.bulkStartpoint(t, 1)}

	const dur = 250 * time.Millisecond
	start := time.Now()
	running := func(uint64) bool { return time.Since(start) < dur }
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.floodBulk(t, i, sps[i], running)
		}()
	}
	wg.Wait()
	r.drainReceiver(t)

	lo, hi := r.fairnessBounds()
	if lo == 0 || hi > 2*lo {
		t.Errorf("two-sender throughput %v not within 2x", r.deliveredSnapshot())
	}
}

// BenchmarkOverloadFairness saturates one receiver from two bulk senders and
// reports the per-sender throughput spread as max/min (1.0 = perfectly fair)
// alongside the usual ns/op for the offered-RSR loop.
func BenchmarkOverloadFairness(b *testing.B) {
	r := newOverloadRig(b, "overload-bench", 2, 5*time.Microsecond)
	defer r.close()
	sps := []*Startpoint{r.bulkStartpoint(b, 0), r.bulkStartpoint(b, 1)}

	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.floodBulk(b, i, sps[i], func(offered uint64) bool { return offered < uint64(b.N) })
		}()
	}
	wg.Wait()
	r.drainReceiver(b)
	b.StopTimer()

	lo, hi := r.fairnessBounds()
	if lo > 0 {
		b.ReportMetric(float64(hi)/float64(lo), "max/min")
	}
}
