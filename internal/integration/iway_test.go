// Package integration holds cross-module scenario tests: whole-system
// configurations in the style of the I-WAY experiment the paper's
// implementation supported — multiple partitions with different fabrics,
// forwarding, multicast, MPI programs, and security, all in one machine.
package integration

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/mpi"
	"nexus/internal/resource"
	"nexus/internal/transport"
)

func fast(extra transport.Params) transport.Params {
	p := transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}
	for k, v := range extra {
		p[k] = v
	}
	return p
}

// iwayMachine builds a heterogeneous three-site machine:
//
//	ranks 0-3: "sp2" partition — mpl + wan (rank 0 doubles as forwarder)
//	ranks 4-5: "viz" partition — myri + wan
//	rank  6:   "remote" site   — wan only
func iwayMachine(t *testing.T) *cluster.Machine {
	t.Helper()
	sp2 := []core.MethodConfig{
		{Name: "mpl", Params: fast(nil)},
		{Name: "wan", Params: fast(nil)},
	}
	viz := []core.MethodConfig{
		{Name: "myri", Params: fast(nil)},
		{Name: "wan", Params: fast(nil)},
	}
	remote := []core.MethodConfig{
		{Name: "wan", Params: fast(nil)},
	}
	cfg := cluster.Config{Nodes: []cluster.NodeSpec{
		{Partition: "sp2", Methods: sp2},
		{Partition: "sp2", Methods: sp2},
		{Partition: "sp2", Methods: sp2},
		{Partition: "sp2", Methods: sp2},
		{Partition: "viz", Methods: viz},
		{Partition: "viz", Methods: viz},
		{Partition: "remote", Methods: remote},
	}}
	m, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestHeterogeneousSelection checks that automatic selection picks the right
// method for every pair of sites.
func TestHeterogeneousSelection(t *testing.T) {
	m := iwayMachine(t)
	cases := []struct {
		from, to int
		want     string
	}{
		{0, 1, "mpl"},  // within sp2
		{4, 5, "myri"}, // within viz
		{0, 4, "wan"},  // sp2 -> viz
		{0, 6, "wan"},  // sp2 -> remote
		{6, 4, "wan"},  // remote -> viz
	}
	for _, c := range cases {
		ep := m.Context(c.to).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))
		sp, err := core.TransferStartpoint(ep.NewStartpoint(), m.Context(c.from))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.SelectMethod(); err != nil {
			t.Fatalf("%d->%d: %v", c.from, c.to, err)
		}
		if got := sp.Method(); got != c.want {
			t.Errorf("%d->%d selected %q, want %q", c.from, c.to, got, c.want)
		}
		sp.Close()
		ep.Close()
	}
}

// TestMPIOverHeterogeneousMachine runs a collective-heavy MPI program over
// all three sites at once.
func TestMPIOverHeterogeneousMachine(t *testing.T) {
	m := iwayMachine(t)
	w, err := mpi.New(m)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTimeout(20 * time.Second)

	errs := make([]error, m.Size())
	done := make(chan int, m.Size())
	for r := 0; r < m.Size(); r++ {
		go func(r int) {
			defer func() { done <- r }()
			c := w.Comm(r)
			sum, err := c.Allreduce([]float64{float64(r + 1)}, mpi.Sum)
			if err != nil {
				errs[r] = err
				return
			}
			want := float64(m.Size() * (m.Size() + 1) / 2)
			if sum[0] != want {
				errs[r] = fmt.Errorf("Allreduce = %v, want %v", sum[0], want)
				return
			}
			if err := c.Barrier(); err != nil {
				errs[r] = err
				return
			}
			// Ring exchange crossing every site boundary.
			right := (r + 1) % c.Size()
			left := (r - 1 + c.Size()) % c.Size()
			b := buffer.New(8)
			b.PutInt(r)
			msg, err := c.Sendrecv(right, 9, b, left, 9)
			if err != nil {
				errs[r] = err
				return
			}
			if got := msg.Buf.Int(); got != left {
				errs[r] = fmt.Errorf("ring got %d, want %d", got, left)
			}
		}(r)
	}
	for i := 0; i < m.Size(); i++ {
		<-done
	}
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	// Traffic really crossed both fabrics and the wide area.
	mplFrames := m.Context(0).Stats().Get("frames.mpl")
	wanFrames := m.Context(6).Stats().Get("frames.wan")
	if mplFrames == 0 || wanFrames == 0 {
		t.Errorf("method usage: mpl=%d (ctx0) wan=%d (ctx6)", mplFrames, wanFrames)
	}
}

// TestForwardingIntoSP2 makes rank 0 the wan forwarder for the sp2
// partition: ranks 1-3 disable their own wan receive path entirely and are
// still reachable from the remote site.
func TestForwardingIntoSP2(t *testing.T) {
	sp2Fwd := []core.MethodConfig{
		{Name: "mpl", Params: fast(nil)},
		{Name: "wan", Params: fast(nil)},
	}
	sp2Member := []core.MethodConfig{
		{Name: "mpl", Params: fast(nil)},
	}
	remote := []core.MethodConfig{{Name: "wan", Params: fast(nil)}}
	m, err := cluster.New(cluster.Config{Nodes: []cluster.NodeSpec{
		{Partition: "sp2", Methods: sp2Fwd},
		{Partition: "sp2", Methods: sp2Member},
		{Partition: "sp2", Methods: sp2Member},
		{Partition: "remote", Methods: remote},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.ConfigureForwarding(0, "wan"); err != nil {
		t.Fatal(err)
	}

	var got [3]atomic.Int64
	for member := 1; member <= 2; member++ {
		member := member
		ep := m.Context(member).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {
			got[member].Add(1)
		}))
		sp, err := core.TransferStartpoint(ep.NewStartpoint(), m.Context(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.RSR("", nil); err != nil {
			t.Fatal(err)
		}
		if mth := sp.Method(); mth != "wan" {
			t.Errorf("remote->member %d method = %q", member, mth)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (got[1].Load() == 0 || got[2].Load() == 0) && time.Now().Before(deadline) {
		m.Context(0).Poll()
		m.Context(1).Poll()
		m.Context(2).Poll()
	}
	if got[1].Load() != 1 || got[2].Load() != 1 {
		t.Fatalf("forwarded deliveries: member1=%d member2=%d", got[1].Load(), got[2].Load())
	}
	if relayed := m.Context(0).Stats().Get("forward.relayed"); relayed != 2 {
		t.Errorf("forward.relayed = %d, want 2", relayed)
	}
	// Members never polled wan (they do not even have the module).
	for member := 1; member <= 2; member++ {
		if polls := m.Context(member).Stats().Get("poll.wan"); polls != 0 {
			t.Errorf("member %d polled wan %d times", member, polls)
		}
	}
}

// TestVisualizationMulticast streams simulation output from an sp2 rank to
// both viz ranks and the remote site with one multicast startpoint — the
// I-WAY "remote visualization" pattern.
func TestVisualizationMulticast(t *testing.T) {
	m := iwayMachine(t)
	var counts [7]atomic.Int64
	var merged *core.Startpoint
	for _, viewer := range []int{4, 5, 6} {
		viewer := viewer
		ep := m.Context(viewer).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {
			counts[viewer].Add(1)
		}))
		sp, err := core.TransferStartpoint(ep.NewStartpoint(), m.Context(1))
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = sp
		} else {
			merged.Merge(sp)
		}
	}
	const framesN = 25
	for i := 0; i < framesN; i++ {
		b := buffer.New(64)
		b.PutInt(i)
		b.PutFloat64s([]float64{1, 2, 3})
		if err := merged.RSR("", b); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, viewer := range []int{4, 5, 6} {
			m.Context(viewer).Poll()
			if counts[viewer].Load() < framesN {
				all = false
			}
		}
		if all {
			break
		}
	}
	for _, viewer := range []int{4, 5, 6} {
		if got := counts[viewer].Load(); got != framesN {
			t.Errorf("viewer %d received %d/%d frames", viewer, got, framesN)
		}
	}
}

// TestDatabaseDrivenIWAY builds the whole heterogeneous machine from a
// textual resource database, the deployment path of §3.1.
func TestDatabaseDrivenIWAY(t *testing.T) {
	db, err := resource.ParseString(`
* = wan:latency=0:poll_cost=0:bandwidth=0
partition:sp2 = mpl:latency=0:poll_cost=0:bandwidth=0,wan:skip_poll=50:latency=0:poll_cost=0:bandwidth=0
partition:viz = myri:latency=0:poll_cost=0:bandwidth=0
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.New(cluster.Config{
		Database: db,
		Nodes: []cluster.NodeSpec{
			{Partition: "sp2"}, {Partition: "sp2"},
			{Partition: "viz"}, {Partition: "viz"},
			{Partition: "elsewhere"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if got := m.Context(0).SkipPoll("wan"); got != 50 {
		t.Errorf("sp2 wan skip_poll = %d, want 50 (from database)", got)
	}
	// sp2 <-> viz still communicate (wan from the global entry).
	var hit atomic.Int64
	ep := m.Context(2).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { hit.Add(1) }))
	sp, err := core.TransferStartpoint(ep.NewStartpoint(), m.Context(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if mth := sp.Method(); mth != "wan" {
		t.Errorf("sp2->viz method = %q", mth)
	}
	if !m.Context(2).PollUntil(func() bool { return hit.Load() == 1 }, 5*time.Second) {
		t.Fatal("cross-site RSR lost")
	}
}
