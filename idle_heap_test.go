//go:build !race

// The race build changes what escapes to the heap, so this pin exists only
// without -race, like the other heap and allocation pins.

package nexus_test

import (
	"runtime"
	"testing"

	"nexus"
)

// TestIdleDatagramContextHeap pins what an idle udp + rudp context holds:
// the live-heap delta over 20 contexts, each polled once, divided by 20.
// The datagram receive slots grow with the bursts a socket sees, so a
// context that has received nothing holds one slot per method, not the
// batch capacity.
func TestIdleDatagramContextHeap(t *testing.T) {
	const (
		n      = 20
		budget = 256 << 10
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ctxs := make([]*nexus.Context, 0, n)
	defer func() {
		for _, c := range ctxs {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := nexus.NewContext(nexus.Options{
			Methods: []nexus.MethodConfig{{Name: "udp"}, {Name: "rudp"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, c)
		c.Poll()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perCtx := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("idle udp+rudp context: %d B live heap", perCtx)
	if perCtx > budget {
		t.Errorf("idle udp+rudp context holds %d B of live heap, budget %d B", perCtx, budget)
	}
	runtime.KeepAlive(ctxs)
}
