package simnet

import (
	"errors"
	"testing"
	"time"

	"nexus/internal/transport"
)

// faultPair builds a sender and receiver on a fresh fabric and returns the
// dialed connection plus the receiver module and its sink.
func faultPair(t *testing.T, name string) (*Fabric, transport.Conn, *Module, *collect) {
	t.Helper()
	f := NewFabric(name)
	sink := &collect{}
	recv, d := initOn(t, f, fastCfg("mpl", ScopeGlobal), 1, "p", "a", sink)
	send, _ := initOn(t, f, fastCfg("mpl", ScopeGlobal), 2, "p", "a", &collect{})
	c, err := send.Dial(d)
	if err != nil {
		t.Fatal(err)
	}
	return f, c, recv, sink
}

func TestFaultsDropRate(t *testing.T) {
	f, c, recv, sink := faultPair(t, "faults-drop")
	f.Faults().DropRate(2, 1, 1.0)
	for i := 0; i < 10; i++ {
		if err := c.Send([]byte("x")); err != nil {
			t.Fatalf("dropped send must still report success, got %v", err)
		}
	}
	if n, _ := recv.Poll(); n != 0 {
		t.Fatalf("delivered %d frames through a 100%% drop link", n)
	}
	if got := f.Faults().Dropped(2, 1); got != 10 {
		t.Fatalf("Dropped = %d, want 10", got)
	}
	// Clearing the rate restores delivery.
	f.Faults().DropRate(2, 1, 0)
	if err := c.Send([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if n, _ := recv.Poll(); n != 1 || sink.count() != 1 {
		t.Fatalf("frame not delivered after drop rate cleared (n=%d)", n)
	}
}

func TestFaultsFailNextSends(t *testing.T) {
	f, c, recv, _ := faultPair(t, "faults-failnext")
	f.Faults().FailNextSends(2, 1, 2)
	for i := 0; i < 2; i++ {
		if err := c.Send([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("send %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := c.Send([]byte("x")); err != nil {
		t.Fatalf("one-shot errors must clear after n sends: %v", err)
	}
	if n, _ := recv.Poll(); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
}

func TestFaultsCutAndRestore(t *testing.T) {
	f, c, recv, _ := faultPair(t, "faults-cut")
	f.Faults().CutLink(2, 1)
	if err := c.Send([]byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	f.Faults().RestoreLink(2, 1)
	if err := c.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, _ := recv.Poll(); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
}

func TestFaultsPartitionHeal(t *testing.T) {
	f, c, recv, _ := faultPair(t, "faults-part")
	f.Faults().Partition([]transport.ContextID{1}, []transport.ContextID{2})
	if err := c.Send([]byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	f.Faults().Heal()
	if err := c.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, _ := recv.Poll(); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	// Contexts outside every group are unconfined.
	f.Faults().Partition([]transport.ContextID{1})
	if err := c.Send([]byte("x")); err != nil {
		t.Fatalf("unlisted sender must pass: %v", err)
	}
}

func TestFaultsDelay(t *testing.T) {
	f, c, recv, _ := faultPair(t, "faults-delay")
	f.Faults().Delay(2, 1, 40*time.Millisecond)
	start := time.Now()
	if err := c.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, _ := recv.Poll(); n != 0 {
		t.Fatal("delayed frame visible immediately")
	}
	for {
		if n, _ := recv.Poll(); n == 1 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("delayed frame never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= 40ms", elapsed)
	}
}

func TestFaultsReset(t *testing.T) {
	f, c, recv, _ := faultPair(t, "faults-reset")
	fs := f.Faults()
	fs.CutLink(2, 1)
	fs.DropRate(2, 1, 1.0)
	fs.Partition([]transport.ContextID{1}, []transport.ContextID{2})
	fs.Reset()
	if err := c.Send([]byte("x")); err != nil {
		t.Fatalf("send after Reset: %v", err)
	}
	if n, _ := recv.Poll(); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
}

// TestRefusedSendAllocs pins the cost of a refused send: a send across a
// partition and one to a context that has left the fabric return their
// sentinels without allocating, and the departed one still reads as
// transport.ErrClosed.
func TestRefusedSendAllocs(t *testing.T) {
	f, c, recv, _ := faultPair(t, "faults-refused-allocs")
	frame := []byte("x")
	f.Faults().Partition([]transport.ContextID{1}, []transport.ContextID{2})
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Send(frame); !errors.Is(err, ErrPartitioned) {
			t.Fatalf("err = %v, want ErrPartitioned", err)
		}
	}); n != 0 {
		t.Errorf("partitioned send allocates %v times, want 0", n)
	}
	f.Faults().Heal()
	recv.Close()
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Send(frame); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v, want transport.ErrClosed", err)
		}
	}); n != 0 {
		t.Errorf("send to a departed context allocates %v times, want 0", n)
	}
}
