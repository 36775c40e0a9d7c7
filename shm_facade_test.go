package nexus_test

import (
	"sync/atomic"
	"testing"
	"time"

	"nexus"
	"nexus/internal/transport/shm"
)

// shmContext builds a context whose method table includes shm (segment
// directories isolated under the test's temp dir).
func shmContext(t *testing.T, methods []nexus.MethodConfig, sel nexus.Selector) *nexus.Context {
	t.Helper()
	c, err := nexus.NewContext(nexus.Options{Methods: methods, Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func shmMethods(t *testing.T, order ...string) []nexus.MethodConfig {
	t.Helper()
	var ms []nexus.MethodConfig
	for _, name := range order {
		mc := nexus.MethodConfig{Name: name}
		if name == "shm" {
			mc.Params = nexus.Params{"dir": t.TempDir()}
		}
		ms = append(ms, mc)
	}
	return ms
}

// TestShmSelectedForSameHostPeer drives the whole stack: two contexts on one
// host advertising shm+tcp, a transferred startpoint, and an RSR. Selection
// must land on shm — the locality rule emerges purely from Applicable, with
// no special case in the core — and the message must arrive through the
// shared-memory rings.
func TestShmSelectedForSameHostPeer(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport requires linux")
	}
	server := shmContext(t, shmMethods(t, "shm", "tcp"), nil)
	client := shmContext(t, shmMethods(t, "shm", "tcp"), nil)

	var got atomic.Value
	server.RegisterHandler("echo", func(ep *nexus.Endpoint, b *nexus.Buffer) {
		got.Store(b.String())
	})
	ep := server.NewEndpoint()
	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.SelectMethod(); err != nil {
		t.Fatal(err)
	}
	if m := sp.Method(); m != "shm" {
		t.Fatalf("selected %q for a same-host peer, want shm", m)
	}
	b := nexus.NewBuffer(64)
	b.PutString("through shared memory")
	if err := sp.RSR("echo", b); err != nil {
		t.Fatal(err)
	}
	if !server.PollUntil(func() bool { return got.Load() != nil }, 5*time.Second) {
		t.Fatal("RSR not delivered over shm")
	}
	if got.Load() != "through shared memory" {
		t.Fatalf("payload corrupted: %v", got.Load())
	}
}

// TestShmBulkThroughCore pushes a payload far beyond one ring message limit
// through the facade: the core must fragment it over shm and reassemble it
// on the far side.
func TestShmBulkThroughCore(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport requires linux")
	}
	server := shmContext(t, shmMethods(t, "shm"), nil)
	client := shmContext(t, shmMethods(t, "shm"), nil)

	const size = 5 << 20 // > maxMessageFor(4 MiB ring) = 2 MiB - 8
	var got atomic.Value
	server.RegisterHandler("bulk", func(ep *nexus.Endpoint, b *nexus.Buffer) {
		got.Store(len(b.Bytes()))
	})
	ep := server.NewEndpoint()
	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), client)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// The payload is larger than one ring can hold, so the receiver must
	// drain concurrently while the sender streams fragments.
	stopSrv := server.StartPoller(time.Millisecond)
	defer stopSrv()
	stopCli := client.StartPoller(time.Millisecond)
	defer stopCli()
	b := nexus.NewBuffer(size + 16)
	b.PutBytes(payload)
	if err := sp.RSR("bulk", b); err != nil {
		t.Fatal(err)
	}
	if !server.PollUntil(func() bool { return got.Load() != nil }, 15*time.Second) {
		t.Fatal("bulk RSR not reassembled over shm")
	}
}

// TestShmPolledLinkRingsNoDoorbells counts the fast method's syscalls per
// message through the whole stack: two reactor-attached contexts echo in
// lockstep over shm, so each side is being polled when its frame lands and no
// producer should ever find a ring armed. Arming after every Poll — instead
// of at the transport.ParkPolls-th consecutive empty one — cost one doorbell
// write and one FIFO read per message here.
func TestShmPolledLinkRingsNoDoorbells(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport requires linux")
	}
	a := shmContext(t, shmMethods(t, "shm"), nil)
	b := shmContext(t, shmMethods(t, "shm"), nil)
	if !a.ReactorActive() {
		t.Skip("no reactor on this platform")
	}
	var atA, atB atomic.Int64
	a.RegisterHandler("echo", func(*nexus.Endpoint, *nexus.Buffer) { atA.Add(1) })
	b.RegisterHandler("echo", func(*nexus.Endpoint, *nexus.Buffer) { atB.Add(1) })
	toB, err := nexus.TransferStartpoint(b.NewEndpoint().NewStartpoint(), a)
	if err != nil {
		t.Fatal(err)
	}
	toA, err := nexus.TransferStartpoint(a.NewEndpoint().NewStartpoint(), b)
	if err != nil {
		t.Fatal(err)
	}
	// hop sends one 64 B RSR and polls the destination until it has arrived.
	hop := func(sp *nexus.Startpoint, dst *nexus.Context, arrived *atomic.Int64, i int64) {
		t.Helper()
		buf := nexus.NewBuffer(80)
		buf.PutBytes(make([]byte, 64))
		if err := sp.RSR("echo", buf); err != nil {
			t.Fatal(err)
		}
		if !dst.PollUntil(func() bool { return arrived.Load() == i }, 5*time.Second) {
			t.Fatalf("echo %d not delivered", i)
		}
	}
	echo := func(i int64) {
		t.Helper()
		hop(toB, b, &atB, i)
		hop(toA, a, &atA, i)
	}
	const warm, rounds = 10, 1000
	for i := int64(1); i <= warm; i++ { // dial, attach and the first wake-ups
		echo(i)
	}
	doorbells := func(c *nexus.Context) uint64 {
		n, ok := c.Observe().Counters["shm.doorbells"]
		if !ok {
			t.Fatal("Observe() reports no shm.doorbells")
		}
		return n
	}
	a0, b0 := doorbells(a), doorbells(b)
	for i := int64(warm + 1); i <= warm+rounds; i++ {
		echo(i)
	}
	if m := toB.Method(); m != "shm" {
		t.Fatalf("echoes went over %q, want shm", m)
	}
	for name, d := range map[string]uint64{"A": doorbells(a) - a0, "B": doorbells(b) - b0} {
		if d > 2 {
			t.Errorf("context %s rang %d doorbells in %d lockstep echoes, want at most 2", name, d, rounds)
		}
	}
}
