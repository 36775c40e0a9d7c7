package core

import (
	"sync"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/simnet"
	"nexus/internal/transport"
)

// seqRecorder is a dedup-counting endpoint handler: chaos phases that inject
// silent drops recover via resend, so the receiver counts per-sequence
// deliveries and the test asserts on the observed set.
type seqRecorder struct {
	mu   sync.Mutex
	seen map[uint64]int
}

func newSeqRecorder() *seqRecorder { return &seqRecorder{seen: make(map[uint64]int)} }

func (r *seqRecorder) handler(_ *Endpoint, b *buffer.Buffer) {
	seq := b.Uint64()
	r.mu.Lock()
	r.seen[seq]++
	r.mu.Unlock()
}

func (r *seqRecorder) count(seq uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[seq]
}

func seqBuf(seq uint64) *buffer.Buffer {
	b := buffer.New(16)
	b.PutUint64(seq)
	return b
}

// chaosCtx builds a context with the simnet methods myri > atm > wan on
// fabrics named by tag, with modelled delays zeroed so the test is driven
// purely by injected faults.
func chaosCtx(t *testing.T, tag string) *Context {
	t.Helper()
	simParams := func() transport.Params {
		return transport.Params{"fabric": tag, "latency": "0s", "poll_cost": "0s"}
	}
	c, err := NewContext(Options{
		Partition: "p0",
		Methods: []MethodConfig{
			{Name: "myri", Params: simParams()},
			{Name: "atm", Params: simParams()},
			{Name: "wan", Params: simParams()},
		},
		health: fastHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func circuitState(c *Context, method string, peer transport.ContextID) (CircuitState, bool) {
	for _, hi := range c.HealthSnapshot() {
		if hi.Method == method && hi.Peer == peer {
			return hi.State, true
		}
	}
	return CircuitClosed, false
}

// TestChaosFailoverSimnet drives one sender multicasting to two receivers
// over simnet while faults are injected: a one-shot send error (absorbed by a
// redial), a severed fast link (per-target degradation to the next method), a
// lossy link (recovered by app-level resend + receiver dedup), and a full
// partition/heal cycle after which both links land back on the fastest
// method. Run under -race by CI.
func TestChaosFailoverSimnet(t *testing.T) {
	tag := "chaos-simnet"
	sender := chaosCtx(t, tag)
	recvB := chaosCtx(t, tag)
	recvC := chaosCtx(t, tag)
	idA, idB, idC := sender.ID(), recvB.ID(), recvC.ID()

	myriFaults := simnet.GetOrCreateFabric(tag + "/myri").Faults()
	atmFaults := simnet.GetOrCreateFabric(tag + "/atm").Faults()
	wanFaults := simnet.GetOrCreateFabric(tag + "/wan").Faults()
	t.Cleanup(func() {
		myriFaults.Reset()
		atmFaults.Reset()
		wanFaults.Reset()
	})

	rb, rc := newSeqRecorder(), newSeqRecorder()
	epB := recvB.NewEndpoint(WithHandler(rb.handler))
	epC := recvC.NewEndpoint(WithHandler(rc.handler))
	sp := transferStartpoint(t, epB.NewStartpoint(), sender, false)
	sp.Merge(transferStartpoint(t, epC.NewStartpoint(), sender, false))
	sp.SetFailover(true)

	seq := uint64(0)
	// deliver multicasts one sequence number with app-level retry: resend
	// until both receivers have observed it (silent-drop phases need this;
	// the dedup recorder absorbs the duplicates retries cause).
	deliver := func(wantErrFree bool) {
		t.Helper()
		seq++
		deadline := time.Now().Add(10 * time.Second)
		for attempt := 0; ; attempt++ {
			err := sp.RSR("", seqBuf(seq))
			if err != nil && wantErrFree {
				t.Fatalf("seq %d attempt %d: %v", seq, attempt, err)
			}
			okB := recvB.PollUntil(func() bool { return rb.count(seq) > 0 }, 100*time.Millisecond)
			okC := recvC.PollUntil(func() bool { return rc.count(seq) > 0 }, 100*time.Millisecond)
			if okB && okC {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("seq %d not delivered to both receivers (B=%v C=%v lastErr=%v)",
					seq, okB, okC, err)
			}
		}
	}

	// Phase 1 — baseline: both links select the fastest method.
	deliver(true)
	if m := sp.MethodFor(idB); m != "myri" {
		t.Fatalf("baseline method to B = %q, want myri", m)
	}
	if m := sp.MethodFor(idC); m != "myri" {
		t.Fatalf("baseline method to C = %q, want myri", m)
	}

	// Phase 2 — a one-shot send error is absorbed by redial + resend without
	// tripping the circuit or changing methods.
	myriFaults.FailNextSends(idA, idB, 1)
	deliver(true)
	if m := sp.MethodFor(idB); m != "myri" {
		t.Fatalf("after one-shot error, method to B = %q, want myri", m)
	}
	if got := sender.Stats().Get("failover.resends"); got < 1 {
		t.Fatalf("failover.resends = %d, want >= 1", got)
	}
	if got := sender.Stats().Get("failover.trips"); got != 0 {
		t.Fatalf("failover.trips = %d after a one-shot error, want 0", got)
	}

	// Phase 3 — sever myri toward B: the B link degrades to atm while the C
	// link stays on myri (per-target degradation), with no lost frame.
	myriFaults.CutLink(idA, idB)
	deliver(true)
	if m := sp.MethodFor(idB); m != "atm" {
		t.Fatalf("after myri cut, method to B = %q, want atm", m)
	}
	deliver(true)
	if m := sp.MethodFor(idC); m != "myri" {
		t.Fatalf("after myri cut toward B, method to C = %q, want myri", m)
	}
	if st, ok := circuitState(sender, "myri", idB); !ok || st != CircuitOpen {
		t.Fatalf("(myri, B) circuit = %v (tracked=%v), want open", st, ok)
	}
	if got := sender.Stats().Get("failover.trips"); got < 1 {
		t.Fatalf("failover.trips = %d, want >= 1", got)
	}
	// The send-error phases so far lose nothing and duplicate nothing.
	for s := uint64(1); s <= seq; s++ {
		if n := rb.count(s); n != 1 {
			t.Fatalf("B saw seq %d %d times, want exactly 1", s, n)
		}
		if n := rc.count(s); n != 1 {
			t.Fatalf("C saw seq %d %d times, want exactly 1", s, n)
		}
	}

	// Phase 4 — lossy atm toward B: silent drops are invisible to the sender
	// (Send succeeds), so recovery is app-level resend + dedup.
	atmFaults.Seed(42)
	atmFaults.DropRate(idA, idB, 0.5)
	lossyStart := seq + 1
	for i := 0; i < 5; i++ {
		deliver(false)
	}
	atmFaults.DropRate(idA, idB, 0)
	if dropped := atmFaults.Dropped(idA, idB); dropped == 0 {
		t.Log("note: no frame was dropped in the lossy phase (seeded rng)")
	}
	for s := lossyStart; s <= seq; s++ {
		if rb.count(s) < 1 || rc.count(s) < 1 {
			t.Fatalf("lossy-phase seq %d missing (B=%d C=%d)", s, rb.count(s), rc.count(s))
		}
	}

	// Phase 5 — full partition: every fabric splits sender vs receivers, so
	// RSRs fail even after exhausting failover.
	groups := [][]transport.ContextID{{idA}, {idB, idC}}
	myriFaults.Partition(groups...)
	atmFaults.Partition(groups...)
	wanFaults.Partition(groups...)
	if err := sp.RSR("", seqBuf(9999)); err == nil {
		t.Fatal("RSR across a full partition succeeded")
	}

	// Heal everything. Open circuits re-probe on their backoff schedule and
	// both links land back on the fastest method.
	myriFaults.Reset()
	atmFaults.Reset()
	wanFaults.Reset()
	time.Sleep(150 * time.Millisecond) // let every backoff expire: reselection probes, not last-gasps
	deliver(false)
	deadline := time.Now().Add(10 * time.Second)
	for sp.MethodFor(idB) != "myri" || sp.MethodFor(idC) != "myri" {
		if time.Now().After(deadline) {
			t.Fatalf("links did not return to myri after heal (B=%q C=%q)",
				sp.MethodFor(idB), sp.MethodFor(idC))
		}
		deliver(false)
		time.Sleep(5 * time.Millisecond)
	}
	if st, ok := circuitState(sender, "myri", idB); !ok || st != CircuitClosed {
		t.Fatalf("(myri, B) circuit after heal = %v, want closed", st)
	}
	if got := sender.Stats().Get("health.halfopen.probes"); got < 1 {
		t.Fatalf("health.halfopen.probes = %d, want >= 1", got)
	}
	if got := sender.Stats().Get("failover.redials"); got < 1 {
		t.Fatalf("failover.redials = %d, want >= 1", got)
	}
	// Every sequence the test sent was delivered to both endpoints at least
	// once; send-error-only phases delivered exactly once (checked above).
	for s := uint64(1); s <= seq; s++ {
		if rb.count(s) < 1 || rc.count(s) < 1 {
			t.Fatalf("seq %d missing after heal (B=%d C=%d)", s, rb.count(s), rc.count(s))
		}
	}
}

// TestChaosTCPKillFailover kills a TCP peer mid-stream and asserts the link
// fails over to wan with no lost sequence, then re-enables TCP and asserts
// the circuit closes again via a half-open probe and the link returns to TCP.
// Run under -race by CI.
func TestChaosTCPKillFailover(t *testing.T) {
	tag := "chaos-tcpkill"
	mk := func() *Context {
		c, err := NewContext(Options{
			Partition: "p0",
			Methods: []MethodConfig{
				{Name: "tcp"},
				{Name: "wan", Params: transport.Params{"fabric": tag, "latency": "0s", "poll_cost": "0s"}},
			},
			health: fastHealth(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	recv := mk()
	send := mk()
	rec := newSeqRecorder()
	ep := recv.NewEndpoint(WithHandler(rec.handler))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
	sp.SetFailover(true)

	seq := uint64(0)
	// deliver retries one sequence until the receiver observes it: a killed
	// TCP peer can lose frames that Send already accepted into the socket
	// buffer, so exactly-once needs sender retry + receiver dedup.
	deliver := func() {
		t.Helper()
		seq++
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := sp.RSR("", seqBuf(seq))
			if recv.PollUntil(func() bool { return rec.count(seq) > 0 }, 100*time.Millisecond) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("seq %d never delivered (last RSR err: %v)", seq, err)
			}
		}
	}

	for i := 0; i < 5; i++ {
		deliver()
	}
	if m := sp.Method(); m != "tcp" {
		t.Fatalf("baseline method = %q, want tcp", m)
	}

	// Kill the TCP peer mid-stream: the receiver's listener and inbound
	// connections close; the sender's next sends hit a dead socket.
	if err := recv.DisableMethod("tcp"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		deliver()
	}
	if m := sp.Method(); m != "wan" {
		t.Fatalf("after TCP kill, method = %q, want wan", m)
	}
	if st, ok := circuitState(send, "tcp", recv.ID()); !ok || st == CircuitClosed {
		t.Fatalf("(tcp, recv) circuit = %v (tracked=%v), want tripped", st, ok)
	}
	if got := send.Stats().Get("failover.trips"); got < 1 {
		t.Fatalf("failover.trips = %d, want >= 1", got)
	}

	// Heal: re-enable TCP in the receiver and teach the sender's live table
	// the new address (the enquiry + manual-control interfaces at work).
	if err := recv.EnableMethod(MethodConfig{Name: "tcp"}); err != nil {
		t.Fatal(err)
	}
	desc, ok := recv.AdvertisedTable().Find("tcp")
	if !ok {
		t.Fatal("re-enabled tcp not advertised")
	}
	table := sp.Table()
	table.Remove("tcp")
	table.Add(desc)
	table.Promote("tcp")

	// Keep traffic flowing; once the open circuit's backoff expires, a
	// half-open probe redials the new listener, the probe send closes the
	// circuit, and the link lands back on tcp.
	deadline := time.Now().Add(10 * time.Second)
	for sp.Method() != "tcp" {
		if time.Now().After(deadline) {
			t.Fatalf("link never returned to tcp (method=%q, snapshot=%+v)",
				sp.Method(), send.HealthSnapshot())
		}
		deliver()
		time.Sleep(5 * time.Millisecond)
	}
	if st, ok := circuitState(send, "tcp", recv.ID()); !ok || st != CircuitClosed {
		t.Fatalf("(tcp, recv) circuit after heal = %v, want closed", st)
	}
	if got := send.Stats().Get("health.halfopen.probes"); got < 1 {
		t.Fatalf("health.halfopen.probes = %d, want >= 1", got)
	}

	for i := 0; i < 5; i++ {
		deliver()
	}
	if m := sp.Method(); m != "tcp" {
		t.Fatalf("post-heal method = %q, want tcp", m)
	}
	// Zero lost frames across the kill: every sequence was observed.
	for s := uint64(1); s <= seq; s++ {
		if rec.count(s) < 1 {
			t.Fatalf("seq %d lost", s)
		}
	}
	// The pre-kill and post-heal sequences went over healthy links exactly
	// once.
	for _, s := range []uint64{1, 2, 3, 4, 5, seq - 1, seq} {
		if n := rec.count(s); n != 1 {
			t.Fatalf("seq %d seen %d times, want exactly 1", s, n)
		}
	}
}
