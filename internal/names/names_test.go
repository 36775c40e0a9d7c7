package names_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/cluster"
	"nexus/internal/core"
	"nexus/internal/names"
	"nexus/internal/rpc"
	"nexus/internal/transport"
)

// testWorld builds a machine with a name server on rank 0 and clients on
// every other rank, with a background poller on the server so requests are
// answered without explicit polling.
func testWorld(t *testing.T, n int) (*cluster.Machine, *names.Server, []*names.Client) {
	t.Helper()
	m, err := cluster.New(cluster.Uniform(n, "p", core.MethodConfig{Name: "inproc"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := names.NewServer(m.Context(0))
	stop := m.Context(0).StartPoller(0)
	t.Cleanup(stop)

	clients := make([]*names.Client, 0, n-1)
	for r := 1; r < n; r++ {
		sp, err := core.TransferStartpoint(srv.Startpoint(), m.Context(r))
		if err != nil {
			t.Fatal(err)
		}
		c := names.NewClient(m.Context(r), sp)
		c.SetTimeout(5 * time.Second)
		clients = append(clients, c)
	}
	return m, srv, clients
}

func TestRegisterResolveAcrossContexts(t *testing.T) {
	m, srv, clients := testWorld(t, 3)
	publisher, consumer := clients[0], clients[1]

	// Rank 1 publishes a service endpoint under a name.
	var got atomic.Value
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(ep *core.Endpoint, b *buffer.Buffer) {
		got.Store(b.String())
	}))
	if err := publisher.Register("services/render", ep.NewStartpoint()); err != nil {
		t.Fatal(err)
	}
	if srv.Len() != 1 {
		t.Errorf("server entries = %d", srv.Len())
	}

	// Rank 2 resolves the name and uses the startpoint directly.
	sp, err := consumer.Resolve("services/render")
	if err != nil {
		t.Fatal(err)
	}
	b := buffer.New(32)
	b.PutString("render frame 7")
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if !m.Context(1).PollUntil(func() bool { return got.Load() != nil }, 5*time.Second) {
		t.Fatal("resolved startpoint did not deliver")
	}
	if got.Load() != "render frame 7" {
		t.Errorf("payload = %v", got.Load())
	}
}

func TestResolveUnknownName(t *testing.T) {
	_, _, clients := testWorld(t, 2)
	if _, err := clients[0].Resolve("no/such/name"); !errors.Is(err, names.ErrNotFound) {
		t.Errorf("Resolve = %v, want names.ErrNotFound", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	m, _, clients := testWorld(t, 2)
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))
	if err := clients[0].Register("dup", ep.NewStartpoint()); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Register("dup", ep.NewStartpoint()); !errors.Is(err, names.ErrExists) {
		t.Errorf("second Register = %v, want names.ErrExists", err)
	}
}

func TestList(t *testing.T) {
	m, _, clients := testWorld(t, 2)
	c := clients[0]
	names, err := c.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("empty List = %v, %v", names, err)
	}
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))
	for _, n := range []string{"b", "a", "c"} {
		if err := c.Register(n, ep.NewStartpoint()); err != nil {
			t.Fatal(err)
		}
	}
	names, err = c.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("List = %v", names)
	}
}

func TestRequestTimeout(t *testing.T) {
	// A server that never polls never answers.
	m, err := cluster.New(cluster.Uniform(2, "p", core.MethodConfig{Name: "inproc"}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := names.NewServer(m.Context(0))
	sp, err := core.TransferStartpoint(srv.Startpoint(), m.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	c := names.NewClient(m.Context(1), sp)
	c.SetTimeout(100 * time.Millisecond)
	if _, err := c.Resolve("x"); !errors.Is(err, names.ErrTimeout) {
		t.Errorf("Resolve against silent server = %v, want names.ErrTimeout", err)
	}
}

// TestResolvedStartpointCrossesPartitions registers a link from inside a
// partition and resolves it from another site: the resolved startpoint's
// descriptor table must drive selection onto the wide-area method, proving
// the name service publishes full reachability, not just an address.
func TestResolvedStartpointCrossesPartitions(t *testing.T) {
	fast := transport.Params{"latency": "0", "poll_cost": "0", "bandwidth": "0"}
	m, err := cluster.New(cluster.TwoPartition(2, "sp2", 1, "remote",
		core.MethodConfig{Name: "mpl", Params: fast},
		core.MethodConfig{Name: "wan", Params: fast},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := names.NewServer(m.Context(0))
	stop := m.Context(0).StartPoller(0)
	defer stop()

	// Rank 1 (sp2) publishes through a same-partition client.
	spToSrv1, err := core.TransferStartpoint(srv.Startpoint(), m.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	pub := names.NewClient(m.Context(1), spToSrv1)
	pub.SetTimeout(5 * time.Second)
	var hits atomic.Int64
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) { hits.Add(1) }))
	if err := pub.Register("sim/output", ep.NewStartpoint()); err != nil {
		t.Fatal(err)
	}

	// Rank 2 (remote) resolves and calls: wan is its only route.
	spToSrv2, err := core.TransferStartpoint(srv.Startpoint(), m.Context(2))
	if err != nil {
		t.Fatal(err)
	}
	remote := names.NewClient(m.Context(2), spToSrv2)
	remote.SetTimeout(5 * time.Second)
	sp, err := remote.Resolve("sim/output")
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.RSR("", nil); err != nil {
		t.Fatal(err)
	}
	if mth := sp.Method(); mth != "wan" {
		t.Errorf("resolved startpoint selected %q, want wan", mth)
	}
	if !m.Context(1).PollUntil(func() bool { return hits.Load() == 1 }, 5*time.Second) {
		t.Fatal("cross-partition call via resolved name lost")
	}
}

func TestConcurrentClients(t *testing.T) {
	m, srv, clients := testWorld(t, 5)
	ep := m.Context(1).NewEndpoint(core.WithHandler(func(*core.Endpoint, *buffer.Buffer) {}))

	done := make(chan error, len(clients))
	for i, c := range clients {
		go func(i int, c *names.Client) {
			name := string(rune('a' + i))
			if err := c.Register(name, ep.NewStartpoint()); err != nil {
				done <- err
				return
			}
			if _, err := c.Resolve(name); err != nil {
				done <- err
				return
			}
			done <- nil
		}(i, c)
	}
	for range clients {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if srv.Len() != len(clients) {
		t.Errorf("entries = %d, want %d", srv.Len(), len(clients))
	}
}

// TestNameTableSemantics drives the registration/lookup state machine
// through a table of operation sequences: lookup misses, duplicate
// registration, and the re-registration that becomes legal once the name's
// state allows it (a second Register of the *same* name always reports
// names.ErrExists — names are immutable once published).
func TestNameTableSemantics(t *testing.T) {
	type op struct {
		kind    string // "register", "resolve", "list"
		name    string
		wantErr error
	}
	cases := []struct {
		name string
		ops  []op
	}{
		{"lookup-miss-empty", []op{
			{kind: "resolve", name: "nothing", wantErr: names.ErrNotFound},
		}},
		{"lookup-miss-other-name", []op{
			{kind: "register", name: "a"},
			{kind: "resolve", name: "b", wantErr: names.ErrNotFound},
			{kind: "resolve", name: "a"},
		}},
		{"re-registration-rejected", []op{
			{kind: "register", name: "dup"},
			{kind: "register", name: "dup", wantErr: names.ErrExists},
			{kind: "resolve", name: "dup"},
		}},
		{"re-registration-distinct-names", []op{
			{kind: "register", name: "svc/1"},
			{kind: "register", name: "svc/2"},
			{kind: "resolve", name: "svc/1"},
			{kind: "resolve", name: "svc/2"},
			{kind: "list", name: ""},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _, clients := testWorld(t, 2)
			cl := clients[0]
			ep := m.Context(1).NewEndpoint()
			for i, o := range tc.ops {
				var err error
				switch o.kind {
				case "register":
					err = cl.Register(o.name, ep.NewStartpoint())
				case "resolve":
					_, err = cl.Resolve(o.name)
				case "list":
					_, err = cl.List()
				}
				if o.wantErr == nil && err != nil {
					t.Fatalf("op %d (%s %q): %v", i, o.kind, o.name, err)
				}
				if o.wantErr != nil && !errors.Is(err, o.wantErr) {
					t.Fatalf("op %d (%s %q) = %v, want %v", i, o.kind, o.name, err, o.wantErr)
				}
			}
		})
	}
}

// TestConcurrentRegisterResolve hammers one server from several goroutines
// mixing registers, resolves (hits and misses), and lists; run under -race
// it pins the server map's and client sequence counter's synchronization.
func TestConcurrentRegisterResolve(t *testing.T) {
	m, srv, clients := testWorld(t, 3)
	cl0, cl1 := clients[0], clients[1]
	ep := m.Context(1).NewEndpoint()

	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, 6*perWorker)
	worker := func(cl *names.Client, id int) {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("w%d/%d", id, i)
			if err := cl.Register(name, ep.NewStartpoint()); err != nil {
				errs <- fmt.Errorf("register %s: %w", name, err)
				return
			}
			if _, err := cl.Resolve(name); err != nil {
				errs <- fmt.Errorf("resolve %s: %w", name, err)
				return
			}
			if _, err := cl.Resolve("never/registered"); !errors.Is(err, names.ErrNotFound) {
				errs <- fmt.Errorf("miss resolve returned %v", err)
				return
			}
		}
	}
	lister := func(cl *names.Client) {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			if _, err := cl.List(); err != nil {
				errs <- fmt.Errorf("list: %w", err)
				return
			}
		}
	}
	wg.Add(4)
	go worker(cl0, 0)
	go worker(cl1, 1)
	go lister(cl0)
	go lister(cl1)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.Len(); n != 2*perWorker {
		t.Errorf("server holds %d names, want %d", n, 2*perWorker)
	}
}

// TestTwoClientsOneContext builds two clients in one context against one
// server: each must receive its own replies, so what the first registers the
// second resolves.
func TestTwoClientsOneContext(t *testing.T) {
	m, srv, _ := testWorld(t, 2)
	var cls [2]*names.Client
	for i := range cls {
		sp, err := core.TransferStartpoint(srv.Startpoint(), m.Context(1))
		if err != nil {
			t.Fatal(err)
		}
		cls[i] = names.NewClient(m.Context(1), sp)
		cls[i].SetTimeout(2 * time.Second)
	}
	ep := m.Context(1).NewEndpoint()
	if err := cls[0].Register("a", ep.NewStartpoint()); err != nil {
		t.Fatalf("first client's Register: %v", err)
	}
	if _, err := cls[1].Resolve("a"); err != nil {
		t.Fatalf("second client's Resolve: %v", err)
	}
}

// TestMalformedRequestIsAnswered: an empty name or a truncated payload gets
// a remote error at once instead of leaving the caller to its deadline.
func TestMalformedRequestIsAnswered(t *testing.T) {
	m, srv, clients := testWorld(t, 2)
	var re *rpc.RemoteError
	ep := m.Context(1).NewEndpoint()
	if err := clients[0].Register("", ep.NewStartpoint()); !errors.As(err, &re) {
		t.Errorf("Register with an empty name = %v, want a RemoteError", err)
	}
	sp, err := core.TransferStartpoint(srv.Startpoint(), m.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	req := buffer.New(16)
	req.PutString("no-target") // the encoded startpoint is missing
	f, err := rpc.For(m.Context(1)).Call(sp, "names.register", req, rpc.CallOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Await(); !errors.As(err, &re) {
		t.Errorf("truncated register = %v, want a RemoteError", err)
	}
	if srv.Len() != 0 {
		t.Errorf("server holds %d names after malformed requests", srv.Len())
	}
}

// TestTimeoutUnifiedWithDeadline pins the stack-wide timeout vocabulary: a
// names timeout matches names.ErrTimeout, core.ErrDeadline, and the standard
// library's context.DeadlineExceeded under errors.Is.
func TestTimeoutUnifiedWithDeadline(t *testing.T) {
	m, err := cluster.New(cluster.Uniform(2, "p", core.MethodConfig{Name: "inproc"}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := names.NewServer(m.Context(0)) // never polls, never answers
	sp, err := core.TransferStartpoint(srv.Startpoint(), m.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	c := names.NewClient(m.Context(1), sp)
	c.SetTimeout(50 * time.Millisecond)
	_, rerr := c.Resolve("x")
	for _, want := range []error{names.ErrTimeout, core.ErrDeadline, context.DeadlineExceeded} {
		if !errors.Is(rerr, want) {
			t.Errorf("errors.Is(%v, %v) = false", rerr, want)
		}
	}
}
