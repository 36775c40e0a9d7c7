// Burst conformance: every transport must survive a 1000-frame burst fired
// as fast as Send accepts it — the pattern the bulk-data fragmenter and the
// batched send path produce. Reliable methods must deliver every frame in
// order; unreliable ones may shed load but the connection must remain usable
// afterwards. Each method runs twice: in portable fallback mode (plain
// polling) and, where the platform and the module support it, attached to a
// reactor with a poller that does exactly the poller's half of the
// transport.Reactive contract and no more — so a module that stops at its
// per-pass bound and reports 0, or parks without arming an edge, strands the
// rest of the burst and fails here.
package transport_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/reactor"
	"nexus/internal/transport"
)

// burstReadiness adapts a reactor to transport.Readiness for the suite: any
// fd's edge sets one shared flag the test poller consumes.
type burstReadiness struct {
	r     *reactor.Reactor
	ready *atomic.Bool
}

func (br *burstReadiness) Add(fd int) error {
	return br.r.Add(fd, func() { br.ready.Store(true) })
}

func (br *burstReadiness) Remove(fd int) { br.r.Remove(fd) }

// startEdgePoller is the poller half of the transport.Reactive contract
// (rule 3) and nothing stricter: it touches the pair's modules only after a
// readiness edge, and then polls them until transport.ParkPolls consecutive
// rounds delivered nothing. The flag is cleared before polling, so an edge
// arriving during a round is kept.
func startEdgePoller(t *testing.T, p *pair, ready *atomic.Bool) {
	t.Helper()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
			}
			if !ready.Swap(false) {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			for empty := 0; empty < transport.ParkPolls; {
				delivered := 0
				for _, m := range p.poll {
					n, _ := m.Poll()
					delivered += n
				}
				if delivered > 0 {
					empty = 0
				} else {
					empty++
				}
			}
		}
	}()
	t.Cleanup(func() { close(done); <-exited })
}

// attachBurstReactor attaches every reactive module the pair polls to a fresh
// reactor and returns the shared readiness flag, or false if no module has
// the capability (the method is inherently poll-based).
func attachBurstReactor(t *testing.T, p *pair) (*atomic.Bool, bool) {
	t.Helper()
	ready := &atomic.Bool{}
	r, err := reactor.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	attached := false
	for _, m := range p.poll {
		rm, ok := m.(transport.Reactive)
		if !ok {
			continue
		}
		if err := rm.AttachReactor(&burstReadiness{r: r, ready: ready}); err != nil {
			t.Fatalf("%s AttachReactor: %v", m.Name(), err)
		}
		attached = true
	}
	// Registration may have missed data already queued; seed one edge.
	ready.Store(true)
	return ready, attached
}

const (
	burstFrames    = 1000
	burstFrameSize = 256
)

// burstPattern builds frame i of the burst: index-stamped so order and
// identity are checkable on the receive side.
func burstPattern(i int) []byte {
	b := make([]byte, burstFrameSize)
	for j := range b {
		b[j] = byte(j) ^ byte(i)
	}
	b[0] = byte(i)
	b[1] = byte(i >> 8)
	return b
}

func TestConformanceBurst(t *testing.T) {
	for _, fx := range fixtures {
		for _, mode := range []string{"fallback", "reactor"} {
			t.Run(fmt.Sprintf("%s/%s", fx.name, mode), func(t *testing.T) {
				p := fx.make(t)
				if mode == "reactor" {
					if !reactor.Supported() {
						t.Skip("no reactor on this platform")
					}
					ready, ok := attachBurstReactor(t, p)
					if !ok {
						t.Skip("method has no reactive module")
					}
					startEdgePoller(t, p, ready)
				} else {
					p.startPoller(t)
				}

				c, err := p.send.Dial(p.desc)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				for i := 0; i < burstFrames; i++ {
					if err := c.Send(burstPattern(i)); err != nil {
						t.Fatalf("Send(frame %d): %v", i, err)
					}
				}

				if p.reliable {
					// Every frame, in order.
					deadline := time.Now().Add(30 * time.Second)
					for p.sink.count() < burstFrames {
						if time.Now().After(deadline) {
							t.Fatalf("delivered %d of %d frames", p.sink.count(), burstFrames)
						}
						time.Sleep(time.Millisecond)
					}
					p.sink.mu.Lock()
					for i, f := range p.sink.frames[:burstFrames] {
						if !bytes.Equal(f, burstPattern(i)) {
							p.sink.mu.Unlock()
							t.Fatalf("frame %d corrupted or out of order", i)
						}
					}
					p.sink.mu.Unlock()
				} else {
					// Load shedding is legal; silence is not. Wait for the
					// backlog to drain, then require the burst left survivors.
					last, stable := -1, 0
					for stable < 20 {
						n := p.sink.count()
						if n == last {
							stable++
						} else {
							last, stable = n, 0
						}
						time.Sleep(5 * time.Millisecond)
					}
					if last == 0 {
						t.Fatal("burst delivered nothing")
					}
					t.Logf("unreliable burst: %d of %d frames survived", last, burstFrames)
				}

				// The connection must still work after the burst.
				p.sink.reset()
				p.deliver(t, c, pattern(0xBB, 128))
			})
		}
	}
}
