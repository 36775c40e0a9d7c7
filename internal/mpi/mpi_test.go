package mpi

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/transport"
)

func newWorld(t testing.TB, n int) *World {
	t.Helper()
	m, err := cluster.New(cluster.Uniform(n, "p0", core.MethodConfig{Name: "inproc"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	w, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTimeout(10 * time.Second)
	return w
}

// runRanks runs body concurrently for every rank and fails the test on any
// error.
func runRanks(t testing.TB, w *World, body func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, w.Size())
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(w.Comm(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func floatsBuf(v ...float64) *buffer.Buffer {
	b := buffer.New(8*len(v) + 8)
	b.PutFloat64s(v)
	return b
}

func TestSendRecvBasic(t *testing.T) {
	w := newWorld(t, 2)
	runRanks(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			b := buffer.New(16)
			b.PutString("hello rank 1")
			return c.Send(1, 7, b)
		default:
			m, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if got := m.Buf.String(); got != "hello rank 1" {
				return fmt.Errorf("payload %q", got)
			}
			if m.Src != 0 || m.Tag != 7 {
				return fmt.Errorf("envelope src=%d tag=%d", m.Src, m.Tag)
			}
			return nil
		}
	})
}

func TestSendToSelf(t *testing.T) {
	w := newWorld(t, 1)
	c := w.Comm(0)
	b := buffer.New(8)
	b.PutInt(99)
	if err := c.Send(0, 1, b); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Buf.Int(); got != 99 {
		t.Errorf("self message = %d", got)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	w := newWorld(t, 3)
	runRanks(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(2, 10, floatsBuf(1))
		case 1:
			return c.Send(2, 20, floatsBuf(2))
		default:
			// Receive tag 20 first even though tag 10 may arrive earlier.
			m20, err := c.Recv(AnySource, 20)
			if err != nil {
				return err
			}
			if m20.Src != 1 {
				return fmt.Errorf("tag 20 from %d", m20.Src)
			}
			m10, err := c.Recv(0, AnyTag)
			if err != nil {
				return err
			}
			if m10.Tag != 10 {
				return fmt.Errorf("rank 0 sent tag %d", m10.Tag)
			}
			return nil
		}
	})
}

func TestFIFOPerSenderAndTag(t *testing.T) {
	w := newWorld(t, 2)
	const n = 50
	runRanks(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				b := buffer.New(8)
				b.PutInt(i)
				if err := c.Send(1, 3, b); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if got := m.Buf.Int(); got != i {
				return fmt.Errorf("message %d arrived as %d", i, got)
			}
		}
		return nil
	})
}

func TestSendrecvRing(t *testing.T) {
	w := newWorld(t, 4)
	runRanks(t, w, func(c *Comm) error {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		m, err := c.Sendrecv(right, 5, floatsBuf(float64(c.Rank())), left, 5)
		if err != nil {
			return err
		}
		v := m.Buf.Float64s()
		if len(v) != 1 || int(v[0]) != left {
			return fmt.Errorf("ring got %v from %d", v, m.Src)
		}
		return nil
	})
}

func TestBarrierOrdering(t *testing.T) {
	w := newWorld(t, 5)
	var phase1 sync.WaitGroup
	phase1.Add(w.Size())
	var after int32
	var mu sync.Mutex
	runRanks(t, w, func(c *Comm) error {
		phase1.Done()
		if err := c.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		after++
		mu.Unlock()
		if err := c.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if after != int32(w.Size()) {
			return fmt.Errorf("rank %d passed second barrier with after=%d", c.Rank(), after)
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	w := newWorld(t, 4)
	runRanks(t, w, func(c *Comm) error {
		var b *buffer.Buffer
		if c.Rank() == 2 {
			b = buffer.New(16)
			b.PutString("from the root")
		}
		got, err := c.Bcast(2, b)
		if err != nil {
			return err
		}
		if s := got.String(); s != "from the root" {
			return fmt.Errorf("rank %d got %q", c.Rank(), s)
		}
		return nil
	})
}

func TestReduceAllreduce(t *testing.T) {
	w := newWorld(t, 4)
	runRanks(t, w, func(c *Comm) error {
		vals := []float64{float64(c.Rank()), 1}
		res, err := c.Reduce(0, vals, Sum)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if !reflect.DeepEqual(res, []float64{0 + 1 + 2 + 3, 4}) {
				return fmt.Errorf("Reduce = %v", res)
			}
		} else if res != nil {
			return fmt.Errorf("non-root got %v", res)
		}
		all, err := c.Allreduce([]float64{float64(c.Rank())}, Max)
		if err != nil {
			return err
		}
		if len(all) != 1 || all[0] != 3 {
			return fmt.Errorf("Allreduce = %v", all)
		}
		mn, err := c.Allreduce([]float64{float64(c.Rank())}, Min)
		if err != nil {
			return err
		}
		if mn[0] != 0 {
			return fmt.Errorf("Allreduce min = %v", mn)
		}
		return nil
	})
}

func TestGatherAllgatherScatter(t *testing.T) {
	w := newWorld(t, 3)
	runRanks(t, w, func(c *Comm) error {
		g, err := c.Gather(1, []float64{float64(10 * c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			want := [][]float64{{0}, {10}, {20}}
			if !reflect.DeepEqual(g, want) {
				return fmt.Errorf("Gather = %v", g)
			}
		}
		ag, err := c.Allgather([]float64{float64(c.Rank()), math.Pi})
		if err != nil {
			return err
		}
		for r := 0; r < c.Size(); r++ {
			if len(ag[r]) != 2 || ag[r][0] != float64(r) || ag[r][1] != math.Pi {
				return fmt.Errorf("Allgather[%d] = %v", r, ag[r])
			}
		}
		var parts [][]float64
		if c.Rank() == 0 {
			parts = [][]float64{{1}, {2, 2}, {3, 3, 3}}
		}
		mine, err := c.Scatter(0, parts)
		if err != nil {
			return err
		}
		if len(mine) != c.Rank()+1 {
			return fmt.Errorf("Scatter len = %d", len(mine))
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	w := newWorld(t, 4)
	runRanks(t, w, func(c *Comm) error {
		parts := make([][]float64, c.Size())
		for r := range parts {
			parts[r] = []float64{float64(c.Rank()*10 + r)}
		}
		got, err := c.Alltoall(parts)
		if err != nil {
			return err
		}
		for r := range got {
			want := float64(r*10 + c.Rank())
			if len(got[r]) != 1 || got[r][0] != want {
				return fmt.Errorf("rank %d: from %d got %v, want %v", c.Rank(), r, got[r], want)
			}
		}
		return nil
	})
}

func TestAlltoallLengthChecked(t *testing.T) {
	w := newWorld(t, 2)
	if _, err := w.Comm(0).Alltoall([][]float64{{1}}); err == nil {
		t.Error("short parts accepted")
	}
}

func TestSplitTwoGroups(t *testing.T) {
	w := newWorld(t, 6)
	runRanks(t, w, func(c *Comm) error {
		color := 0
		if c.Rank() >= 4 {
			color = 1
		}
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		wantSize := 4
		if color == 1 {
			wantSize = 2
		}
		if sub.Size() != wantSize {
			return fmt.Errorf("split size = %d, want %d", sub.Size(), wantSize)
		}
		// Collective within the sub-communicator sees only its members.
		sum, err := sub.Allreduce([]float64{1}, Sum)
		if err != nil {
			return err
		}
		if int(sum[0]) != wantSize {
			return fmt.Errorf("sub Allreduce = %v", sum)
		}
		// Point-to-point inside the sub-communicator uses sub ranks.
		if sub.Size() == 2 {
			if sub.Rank() == 0 {
				if err := sub.Send(1, 9, floatsBuf(42)); err != nil {
					return err
				}
			} else {
				m, err := sub.Recv(0, 9)
				if err != nil {
					return err
				}
				if v := m.Buf.Float64s(); v[0] != 42 {
					return fmt.Errorf("sub message %v", v)
				}
			}
		}
		return nil
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	w := newWorld(t, 3)
	runRanks(t, w, func(c *Comm) error {
		// Reverse order by key: world rank 2 becomes sub rank 0.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		wantRank := c.Size() - 1 - c.Rank()
		if sub.Rank() != wantRank {
			return fmt.Errorf("key-reversed rank = %d, want %d", sub.Rank(), wantRank)
		}
		return nil
	})
}

func TestIrecvWait(t *testing.T) {
	w := newWorld(t, 2)
	runRanks(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			req := c.Irecv(1, 4)
			m, err := req.Wait()
			if err != nil {
				return err
			}
			if got := m.Buf.Int(); got != 17 {
				return fmt.Errorf("Irecv got %d", got)
			}
			// Second Wait returns the same message.
			m2, err := req.Wait()
			if err != nil || m2 != m {
				return fmt.Errorf("repeat Wait: %v %v", m2, err)
			}
			return nil
		}
		b := buffer.New(8)
		b.PutInt(17)
		return c.Send(0, 4, b)
	})
}

func TestRecvTimeout(t *testing.T) {
	w := newWorld(t, 2)
	w.SetTimeout(100 * time.Millisecond)
	_, err := w.Comm(0).Recv(1, 1)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("Recv with no sender: %v", err)
	}
}

func TestNegativeTagRejected(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.Comm(0).Send(1, -5, nil); err == nil {
		t.Error("negative tag Send accepted")
	}
	if _, err := w.Comm(0).Recv(1, -5); err == nil {
		t.Error("negative tag Recv accepted")
	}
}

func TestRankRangeChecked(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.Comm(0).Send(7, 1, nil); err == nil {
		t.Error("out-of-range dest accepted")
	}
}

func TestProbe(t *testing.T) {
	w := newWorld(t, 2)
	c0, c1 := w.Comm(0), w.Comm(1)
	if c1.Probe(0, 3) {
		t.Error("Probe true before send")
	}
	if err := c0.Send(1, 3, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c1.Probe(0, 3) {
		if time.Now().After(deadline) {
			t.Fatal("Probe never saw the message")
		}
	}
	// Probe does not consume.
	if _, err := c1.Recv(0, 3); err != nil {
		t.Errorf("Recv after Probe: %v", err)
	}
}

// TestCrossPartitionMPI runs the communicator over the paper's two-partition
// layout: intra-partition messages ride mpl, inter-partition ride wan, with
// no MPI-level code aware of the difference.
func TestCrossPartitionMPI(t *testing.T) {
	fast := transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}
	m, err := cluster.New(cluster.TwoPartition(2, "atmo", 2, "ocean",
		core.MethodConfig{Name: "mpl", Params: fast},
		core.MethodConfig{Name: "wan", Params: fast},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTimeout(10 * time.Second)
	runRanks(t, w, func(c *Comm) error {
		// All-pairs exchange.
		for dst := 0; dst < c.Size(); dst++ {
			if dst == c.Rank() {
				continue
			}
			if err := c.Send(dst, 1, floatsBuf(float64(c.Rank()))); err != nil {
				return err
			}
		}
		seen := map[int]bool{}
		for i := 0; i < c.Size()-1; i++ {
			msg, err := c.Recv(AnySource, 1)
			if err != nil {
				return err
			}
			seen[msg.Src] = true
		}
		if len(seen) != c.Size()-1 {
			return fmt.Errorf("rank %d saw %v", c.Rank(), seen)
		}
		return nil
	})
	// Enquiry: intra-partition traffic used mpl, inter-partition used wan.
	st := m.Context(0).Stats()
	if st.Get("frames.mpl") == 0 {
		t.Error("no mpl frames recorded")
	}
	if st.Get("frames.wan") == 0 {
		t.Error("no wan frames recorded")
	}
}
