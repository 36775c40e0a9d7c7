//go:build !race

// The race build changes what escapes to the heap and makes sync.Pool drop
// items at random, so these pins exist only without -race, like the other
// heap and allocation pins.

package tcp

import (
	"net"
	"runtime"
	"testing"
)

// idleConns initializes a module, warms its read buffer with one connection
// and returns it; dial then opens n raw client connections to it, each
// sending one small frame, and polls until every frame is delivered.
func idleConns(t *testing.T) (*Module, func(n int) []net.Conn) {
	sink := &countSink{}
	m, d := initModule(t, nil, 1, sink)
	dial := func(n int) []net.Conn {
		clients := make([]net.Conn, n)
		for i := range clients {
			c, err := net.Dial("tcp", d.Attr("addr"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if _, err := c.Write(encodeStream([]byte("idle"))); err != nil {
				t.Fatal(err)
			}
			clients[i] = c
		}
		want := sink.frames + n
		pollUntil(t, m, func() bool { return sink.frames == want })
		return clients
	}
	dial(1)
	return m, dial
}

// TestIdlePollAllocs pins a tcp Poll over idle inbound connections at zero
// allocations: the pass reuses the module's snapshot slice and lends the
// module's one read buffer to each connection in turn.
func TestIdlePollAllocs(t *testing.T) {
	m, dial := idleConns(t)
	dial(15)
	if allocs := testing.AllocsPerRun(100, func() { m.Poll() }); allocs != 0 {
		t.Errorf("an idle Poll over 16 connections allocates %.1f times, want 0", allocs)
	}
}

// TestIdleInboundConnHeap pins what an idle inbound connection holds: the
// live-heap delta over 16 connections, client sockets included, each having
// delivered one frame, divided by 16. A connection at rest holds no read
// buffer; the module's one buffer exists before the first sample.
func TestIdleInboundConnHeap(t *testing.T) {
	const (
		n      = 16
		budget = 8 << 10
	)
	_, dial := idleConns(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and empty sync.Pool's victim cache
	runtime.ReadMemStats(&before)
	clients := dial(n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perConn := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("idle inbound tcp connection: %d B live heap", perConn)
	if perConn > budget {
		t.Errorf("an idle inbound connection holds %d B of live heap, budget %d B", perConn, budget)
	}
	runtime.KeepAlive(clients)
}
