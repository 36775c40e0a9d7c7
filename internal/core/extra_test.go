package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
	_ "nexus/internal/transport/udp"
)

// TestCrossFormatRSR packs arguments in the non-native byte order and checks
// the handler reads them back correctly — the heterogeneity path of §3's
// buffer machinery driven through a full RSR.
func TestCrossFormatRSR(t *testing.T) {
	tag := "xformat"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())

	foreign := buffer.BigEndian
	if buffer.NativeFormat == buffer.BigEndian {
		foreign = buffer.LittleEndian
	}

	type result struct {
		i int64
		f float64
		s string
	}
	var got atomic.Value
	ep := recv.NewEndpoint(WithHandler(func(ep *Endpoint, b *buffer.Buffer) {
		got.Store(result{i: b.Int64(), f: b.Float64(), s: b.String()})
	}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)

	b := buffer.NewFormat(foreign, 64)
	b.PutInt64(-123456789)
	b.PutFloat64(2.71828)
	b.PutString("byte-order independent")
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if !recv.PollUntil(func() bool { return got.Load() != nil }, 5*time.Second) {
		t.Fatal("not delivered")
	}
	r := got.Load().(result)
	if r.i != -123456789 || r.f != 2.71828 || r.s != "byte-order independent" {
		t.Errorf("cross-format decode: %+v", r)
	}
}

// TestPropertyStartpointEncodeRoundTrip encodes startpoints with random
// multicast target sets and checks decode recovers the same links.
func TestPropertyStartpointEncodeRoundTrip(t *testing.T) {
	tag := "sp-prop"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())

	// A pool of endpoints to build random target sets from.
	var pool []*Endpoint
	for i := 0; i < 6; i++ {
		pool = append(pool, recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {})))
	}
	f := func(picks []uint8, lite bool) bool {
		if len(picks) == 0 {
			return true
		}
		var sp *Startpoint
		for _, p := range picks {
			s := pool[int(p)%len(pool)].NewStartpoint()
			if sp == nil {
				sp = s
			} else {
				sp.Merge(s)
			}
		}
		b := buffer.New(512)
		if lite {
			sp.EncodeLite(b)
		} else {
			sp.Encode(b)
		}
		dec, err := buffer.FromBytes(b.Encode())
		if err != nil {
			return false
		}
		got, err := send.DecodeStartpoint(dec)
		if err != nil {
			return false
		}
		a, bTargets := sp.Targets(), got.Targets()
		if len(a) != len(bTargets) {
			return false
		}
		for i := range a {
			if a[i] != bTargets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMulticastManualSelection applies SetMethod across every link of a
// multicast startpoint at once.
func TestMulticastManualSelection(t *testing.T) {
	tag := "mcast-manual"
	mplCfg := MethodConfig{Name: "mpl", Params: transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}}
	r1 := newCtx(t, tag, "pp", mplCfg, inprocCfg())
	r2 := newCtx(t, tag, "pp", mplCfg, inprocCfg())
	send := newCtx(t, tag, "pp", mplCfg, inprocCfg())

	var h1, h2 atomic.Int64
	ep1 := r1.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { h1.Add(1) }))
	ep2 := r2.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) { h2.Add(1) }))
	sp := transferStartpoint(t, ep1.NewStartpoint(), send, false)
	sp.Merge(transferStartpoint(t, ep2.NewStartpoint(), send, false))

	if err := sp.SetMethod("inproc"); err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	ok1 := r1.PollUntil(func() bool { return h1.Load() == 1 }, 5*time.Second)
	ok2 := r2.PollUntil(func() bool { return h2.Load() == 1 }, 5*time.Second)
	if !ok1 || !ok2 {
		t.Fatalf("multicast manual delivery: %d %d", h1.Load(), h2.Load())
	}
	// SetMethod fails atomically if any link lacks the method.
	r3 := newCtx(t, tag+"-island", "", inprocCfg())
	ep3 := r3.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp.Merge(transferStartpoint(t, ep3.NewStartpoint(), send, false))
	if err := sp.SetMethod("mpl"); err == nil {
		t.Error("SetMethod succeeded with an unreachable link")
	}
}

// TestByteCountersTrackTraffic exercises the enquiry counters the paper
// requires for evaluating selections.
func TestByteCountersTrackTraffic(t *testing.T) {
	tag := "counters"
	recv := newCtx(t, tag, "", inprocCfg())
	send := newCtx(t, tag, "", inprocCfg())
	ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
	sp := transferStartpoint(t, ep.NewStartpoint(), send, false)

	payload := buffer.New(100)
	payload.PutRaw(make([]byte, 100))
	const n = 7
	for i := 0; i < n; i++ {
		if err := sp.RSR("", payload); err != nil {
			t.Fatal(err)
		}
	}
	recv.PollUntil(func() bool { return recv.Stats().Get("rsr.recv") == n }, 5*time.Second)

	sentBytes := send.Stats().Get("bytes.sent")
	recvBytes := recv.Stats().Get("bytes.recv")
	if sentBytes != recvBytes {
		t.Errorf("bytes.sent %d != bytes.recv %d", sentBytes, recvBytes)
	}
	if sentBytes < n*100 {
		t.Errorf("bytes.sent %d < payload volume %d", sentBytes, n*100)
	}
	if send.Stats().Get("rsr.sent") != n {
		t.Errorf("rsr.sent = %d", send.Stats().Get("rsr.sent"))
	}
	// Per-method frame counters attribute the traffic to inproc.
	for _, mi := range recv.Methods() {
		if mi.Name == "inproc" && mi.Frames != n {
			t.Errorf("inproc frames = %d, want %d", mi.Frames, n)
		}
	}
}
