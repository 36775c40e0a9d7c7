package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// encodeRSR hand-builds a wire frame addressed to (ctx, ep) carrying one
// int64, exactly as Startpoint.send would, so tests can drive Context.dispatch
// directly with a deterministic arrival order.
func encodeRSR(t testing.TB, ctx transport.ContextID, ep uint64, handler string, v int64) []byte {
	t.Helper()
	b := buffer.New(16)
	b.PutInt64(v)
	off := wire.HeaderLen(len(handler))
	enc := make([]byte, off+b.EncodedLen())
	wire.EncodeHeader(enc, wire.TypeRSR, uint64(ctx), ep, uint64(ctx), handler, b.EncodedLen())
	b.EncodeTo(enc[off:])
	return enc
}

// TestPerEndpointFIFO proves the dispatch engine's ordering contract: frames
// to one endpoint are delivered in arrival order even though distinct
// endpoints execute on parallel lanes — including endpoints that share a lane
// (3 lanes, 8 endpoints).
func TestPerEndpointFIFO(t *testing.T) {
	const (
		numEP     = 8
		perEP     = 500
		drivers   = 4 // goroutines feeding dispatch; each owns numEP/drivers endpoints
		epsPerDrv = numEP / drivers
	)
	c, err := NewContext(Options{Threaded: true, dispatch: dispatchConfig{lanes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var done atomic.Int64
	seqs := make([][]int64, numEP)
	var mu sync.Mutex
	eps := make([]*Endpoint, numEP)
	for i := 0; i < numEP; i++ {
		i := i
		eps[i] = c.NewEndpoint(WithHandler(func(_ *Endpoint, b *buffer.Buffer) {
			v := b.Int64()
			mu.Lock()
			seqs[i] = append(seqs[i], v)
			mu.Unlock()
			done.Add(1)
		}))
	}
	frames := make([][][]byte, numEP)
	for i, ep := range eps {
		frames[i] = make([][]byte, perEP)
		for s := 0; s < perEP; s++ {
			frames[i][s] = encodeRSR(t, c.ID(), ep.ID(), "", int64(s))
		}
	}

	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each driver interleaves its endpoints per sequence step, so
			// every lane sees frames from multiple endpoints mixed together.
			for s := 0; s < perEP; s++ {
				for e := d * epsPerDrv; e < (d+1)*epsPerDrv; e++ {
					c.dispatch(nil, frames[e][s])
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for done.Load() != numEP*perEP && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if done.Load() != numEP*perEP {
		t.Fatalf("delivered %d frames, want %d", done.Load(), numEP*perEP)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range seqs {
		if len(got) != perEP {
			t.Fatalf("endpoint %d: %d deliveries, want %d", i, len(got), perEP)
		}
		for s, v := range got {
			if v != int64(s) {
				t.Fatalf("endpoint %d: delivery %d carried seq %d: per-endpoint FIFO violated", i, s, v)
			}
		}
	}
}

// TestUnregisterHandlerDrains pins the UnregisterHandler guarantee: once it
// returns, the removed handler is not running and will never run again, even
// with frames already sitting in dispatch lane queues and deliveries racing
// in from other goroutines.
func TestUnregisterHandlerDrains(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		threaded := threaded
		t.Run(fmt.Sprintf("threaded=%v", threaded), func(t *testing.T) {
			c, err := NewContext(Options{
				Threaded: threaded,
				dispatch: dispatchConfig{lanes: 4, queueDepth: 64},
				errorLog: func(error) {}, // unknown-handler drops after removal are expected
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ep := c.NewEndpoint()
			frame := encodeRSR(t, c.ID(), ep.ID(), "hot", 1)

			var running, hits atomic.Int64
			var removed atomic.Bool
			var violation atomic.Bool
			c.RegisterHandler("hot", func(*Endpoint, *buffer.Buffer) {
				running.Add(1)
				if removed.Load() {
					violation.Store(true)
				}
				hits.Add(1)
				running.Add(-1)
			})

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							c.dispatch(nil, frame)
						}
					}
				}()
			}
			// Let the flood build up queued frames, then pull the handler.
			for hits.Load() < 100 {
				time.Sleep(time.Millisecond)
			}
			c.UnregisterHandler("hot")
			if n := running.Load(); n != 0 {
				t.Errorf("handler still running after UnregisterHandler returned (%d instances)", n)
			}
			removed.Store(true)
			after := hits.Load()
			time.Sleep(20 * time.Millisecond) // flood continues; frames must drop
			if hits.Load() != after {
				t.Errorf("handler invoked %d more times after UnregisterHandler returned",
					hits.Load()-after)
			}
			if violation.Load() {
				t.Error("handler observed post-unregister state: stale delivery")
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestConcurrentRegistration hammers handler registration, endpoint
// creation/close, and skip_poll tuning concurrently with an inbound RSR flood
// over a real transport. Run under -race; assertions are the per-generation
// stale-handler check plus "nothing deadlocks or panics".
func TestConcurrentRegistration(t *testing.T) {
	cases := []struct {
		name    string
		methods func(tag string) []MethodConfig
	}{
		{"inproc", func(tag string) []MethodConfig {
			return []MethodConfig{{Name: "inproc", Params: transport.Params{"exchange": tag}}}
		}},
		{"simnet", func(tag string) []MethodConfig {
			return []MethodConfig{{Name: "mpl", Params: transport.Params{
				"fabric": tag, "poll_cost": "1us", "latency": "0", "bandwidth": "0"}}}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tag := "conc-reg-" + tc.name
			recv, err := NewContext(Options{
				Partition: "p0",
				Methods:   tc.methods(tag),
				Threaded:  true,
				dispatch:  dispatchConfig{lanes: 4, queueDepth: 64},
				errorLog:  func(error) {}, // churn makes unknown drops routine
			})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			send, err := NewContext(Options{Partition: "p0", Methods: tc.methods(tag)})
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			ep := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
			sp := transferStartpoint(t, ep.NewStartpoint(), send, false)
			stopPoll := recv.StartPoller(0)
			defer stopPoll()

			var liveGen atomic.Int64
			var violation atomic.Int64
			liveGen.Store(-1)
			stop := make(chan struct{})
			var wg sync.WaitGroup

			// Handler churn with the per-generation staleness check: handler
			// generation i may only ever observe liveGen == i.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < 300; i++ {
					i := i
					liveGen.Store(i)
					recv.RegisterHandler("hot", func(*Endpoint, *buffer.Buffer) {
						if liveGen.Load() != i {
							violation.Add(1)
						}
					})
					recv.UnregisterHandler("hot")
					liveGen.Store(-1)
				}
				close(stop)
			}()
			// Endpoint churn.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						e := recv.NewEndpoint(WithHandler(func(*Endpoint, *buffer.Buffer) {}))
						e.Close()
					}
				}
			}()
			// RSR flood from two senders sharing one startpoint (exercises
			// the lock-free send path too).
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b := buffer.New(16)
					b.PutInt64(7)
					for {
						select {
						case <-stop:
							return
						default:
							if err := sp.RSR("hot", b); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if n := violation.Load(); n != 0 {
				t.Errorf("%d deliveries reached a stale handler generation", n)
			}
		})
	}
}

// TestDispatchBlocksWhenLaneFull: with a single blocked lane of depth 1, the
// third frame's dispatch waits for room instead of overtaking the queued
// second frame, and the overflow is counted once.
func TestDispatchBlocksWhenLaneFull(t *testing.T) {
	c, err := NewContext(Options{
		Threaded: true,
		dispatch: dispatchConfig{lanes: 1, queueDepth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	entered := make(chan int64, 8)
	release := make(chan struct{})
	ep := c.NewEndpoint(WithHandler(func(_ *Endpoint, b *buffer.Buffer) {
		v := b.Int64()
		entered <- v
		if v == 1 {
			<-release
		}
	}))
	f := func(v int64) []byte { return encodeRSR(t, c.ID(), ep.ID(), "", v) }

	c.dispatch(nil, f(1)) // lane worker takes it and blocks
	if got := <-entered; got != 1 {
		t.Fatalf("first handler saw %d", got)
	}
	c.dispatch(nil, f(2)) // fills the depth-1 queue
	third := make(chan struct{})
	go func() {
		defer close(third)
		c.dispatch(nil, f(3)) // queue full: blocks until the worker takes 2
	}()
	full := c.stats.Counter("dispatch.queue_full")
	for deadline := time.Now().Add(5 * time.Second); full.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("third dispatch never found the lane full")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-third:
		t.Fatal("dispatch into a full lane returned before the lane had room")
	case v := <-entered:
		t.Fatalf("frame %d ran while frame 1 still held the lane", v)
	default:
	}
	close(release)
	<-third
	for want := int64(2); want <= 3; want++ {
		if got := <-entered; got != want {
			t.Fatalf("delivery order broken: got frame %d, want %d", got, want)
		}
	}
	if got := full.Load(); got != 1 {
		t.Errorf("dispatch.queue_full = %d, want 1", got)
	}
}

// TestThreadedRSRAllocs pins the steady-state allocation count of a threaded
// (lane-dispatched) local RSR: pooled encode scratch, pooled queue hand-off,
// stack decode on the lane worker — the only per-RSR allocation left is the
// *Buffer wrapper handed to the handler. Budget 3 leaves room for sizing
// variance in the pools.
func TestThreadedRSRAllocs(t *testing.T) {
	c, err := NewContext(Options{Threaded: true, dispatch: dispatchConfig{lanes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{}, 1)
	ep := c.NewEndpoint(WithHandler(func(_ *Endpoint, b *buffer.Buffer) {
		_ = b.Int64()
		done <- struct{}{}
	}))
	sp := ep.NewStartpoint()
	b := buffer.New(16)
	b.PutInt64(7)
	for i := 0; i < 10; i++ { // warm up selection, pools, and the lane
		if err := sp.RSR("", b); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	n := testing.AllocsPerRun(100, func() {
		if err := sp.RSR("", b); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if n > 3 {
		t.Errorf("threaded RSR allocates %.1f per op, budget is 3", n)
	}
}
