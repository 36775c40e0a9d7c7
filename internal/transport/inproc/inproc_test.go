package inproc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nexus/internal/transport"
)

type collect struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collect) Deliver(f []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), f...)) // Deliver borrows f
	c.mu.Unlock()
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// values checks p against the module's declaration, as the registry does
// before calling the factory.
func values(p transport.Params) transport.Values {
	v, err := transport.Default.Parse(Name, p)
	if err != nil {
		panic(err)
	}
	return v
}

func pair(t *testing.T, ex *Exchange) (a, b *Module, da, db transport.Descriptor, sa, sb *collect) {
	t.Helper()
	sa, sb = &collect{}, &collect{}
	a = New(ex, values(nil))
	b = New(ex, values(nil))
	pda, err := a.Init(transport.Env{Context: 1, Process: "p", Sink: sa})
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := b.Init(transport.Env{Context: 2, Process: "p", Sink: sb})
	if err != nil {
		t.Fatal(err)
	}
	return a, b, *pda, *pdb, sa, sb
}

func TestSendPollRoundTrip(t *testing.T) {
	ex := NewExchange("t1")
	a, b, _, db, _, sb := pair(t, ex)
	defer a.Close()
	defer b.Close()

	c, err := a.Dial(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing arrives until the receiver polls.
	if sb.count() != 0 {
		t.Fatalf("frames delivered before Poll: %d", sb.count())
	}
	n, err := b.Poll()
	if err != nil || n != 5 {
		t.Fatalf("Poll = %d, %v; want 5", n, err)
	}
	if sb.count() != 5 {
		t.Fatalf("delivered %d frames, want 5", sb.count())
	}
	if sb.frames[0][0] != 0 || sb.frames[4][0] != 4 {
		t.Error("frames out of order")
	}
	// Second poll finds nothing.
	if n, _ := b.Poll(); n != 0 {
		t.Errorf("second Poll = %d", n)
	}
}

func TestPollBatchLimit(t *testing.T) {
	ex := NewExchange("t2")
	sink := &collect{}
	recv := New(ex, values(transport.Params{"poll_batch": "3"}))
	d, err := recv.Init(transport.Env{Context: 9, Process: "p", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	send := New(ex, values(nil))
	if _, err := send.Init(transport.Env{Context: 10, Process: "p", Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	c, err := send.Dial(*d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := c.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for want, left := 3, 7; left > 0; left -= want {
		if left < want {
			want = left
		}
		if n, _ := recv.Poll(); n != want {
			t.Fatalf("Poll = %d, want %d", n, want)
		}
	}
}

func TestApplicability(t *testing.T) {
	ex := NewExchange("t3")
	a, _, _, db, _, _ := pair(t, ex)

	if !a.Applicable(db) {
		t.Error("same exchange+process not applicable")
	}
	otherProc := db.Clone()
	otherProc.Attrs["process"] = "q"
	if a.Applicable(otherProc) {
		t.Error("different process applicable")
	}
	otherEx := db.Clone()
	otherEx.Attrs["exchange"] = "elsewhere"
	if a.Applicable(otherEx) {
		t.Error("different exchange applicable")
	}
	wrongMethod := db.Clone()
	wrongMethod.Method = "tcp"
	if a.Applicable(wrongMethod) {
		t.Error("different method applicable")
	}
	if _, err := a.Dial(otherEx); !errors.Is(err, transport.ErrNotApplicable) {
		t.Errorf("Dial err = %v", err)
	}
}

func TestDoubleInitRejected(t *testing.T) {
	ex := NewExchange("t4")
	m := New(ex, values(nil))
	env := transport.Env{Context: 1, Process: "p", Sink: &collect{}}
	if _, err := m.Init(env); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Init(env); err == nil {
		t.Error("second Init succeeded")
	}
	// A second module for the same context on the same exchange must fail.
	m2 := New(ex, values(nil))
	if _, err := m2.Init(env); err == nil {
		t.Error("duplicate context registration succeeded")
	}
}

func TestSendToClosedContext(t *testing.T) {
	ex := NewExchange("t5")
	a, b, _, db, _, _ := pair(t, ex)
	c, err := a.Dial(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Send to closed context err = %v", err)
	}
	// Closing twice is fine.
	if err := b.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	// The context id can be reused after Close.
	b2 := New(ex, values(nil))
	if _, err := b2.Init(transport.Env{Context: 2, Process: "p", Sink: &collect{}}); err != nil {
		t.Errorf("re-Init after Close: %v", err)
	}
}

func TestUninitializedOps(t *testing.T) {
	m := New(NewExchange("t6"), values(nil))
	if _, err := m.Poll(); !errors.Is(err, transport.ErrNotInitialized) {
		t.Errorf("Poll err = %v", err)
	}
	if _, err := m.Dial(transport.Descriptor{Method: Name}); !errors.Is(err, transport.ErrNotInitialized) {
		t.Errorf("Dial err = %v", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	ex := NewExchange("t7")
	a, b, _, db, _, sb := pair(t, ex)
	_ = a
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each sender gets its own module/context like a real machine.
			m := New(ex, values(nil))
			if _, err := m.Init(transport.Env{Context: transport.ContextID(100 + id), Process: "p", Sink: &collect{}}); err != nil {
				t.Error(err)
				return
			}
			defer m.Close()
			c, err := m.Dial(db)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := c.Send([]byte{byte(id)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	total := 0
	for {
		n, err := b.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != senders*per {
		t.Errorf("received %d frames, want %d", total, senders*per)
	}
	if sb.count() != senders*per {
		t.Errorf("sink saw %d frames, want %d", sb.count(), senders*per)
	}
}

func TestPollCostHint(t *testing.T) {
	m := New(NewExchange("t8"), values(transport.Params{"poll_cost": "50us"}))
	var _ transport.CostHinter = m
	if got := m.PollCostHint(); got != 50*time.Microsecond {
		t.Errorf("PollCostHint = %v", got)
	}
}

func TestPollCostSlowsPoll(t *testing.T) {
	ex := NewExchange("t9")
	m := New(ex, values(transport.Params{"poll_cost": "200us"}))
	if _, err := m.Init(transport.Env{Context: 1, Process: "p", Sink: &collect{}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const polls = 20
	for i := 0; i < polls; i++ {
		if _, err := m.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < polls*150*time.Microsecond {
		t.Errorf("%d polls with 200us cost took only %v", polls, el)
	}
}

func TestGetOrCreateExchange(t *testing.T) {
	name := fmt.Sprintf("unique-%d", time.Now().UnixNano())
	a := GetOrCreateExchange(name)
	b := GetOrCreateExchange(name)
	if a != b {
		t.Error("GetOrCreateExchange returned different exchanges for one name")
	}
	if a.Name() != name {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestRegisteredInDefaultRegistry(t *testing.T) {
	if !transport.Default.Has(Name) {
		t.Fatal("inproc module not registered")
	}
}
