package core

import (
	"errors"
	"testing"
	"time"

	"nexus/internal/metrics"
	"nexus/internal/transport"
)

// fastHealth is a deterministic registry config for tests: defaultHealth with
// a lower poll threshold, short backoffs and no jitter. A config is used
// whole (only the all-zero one selects the defaults), so start from
// defaultHealth and override.
func fastHealth() healthConfig {
	cfg := defaultHealth
	cfg.backoffBase = 20 * time.Millisecond
	cfg.backoffMax = 100 * time.Millisecond
	cfg.backoffJitter = 0 // disabled
	cfg.probeTimeout = 200 * time.Millisecond
	cfg.pollFailureThreshold = 3
	return cfg
}

func TestHealthConfigDefaults(t *testing.T) {
	if c := newHealthRegistry(healthConfig{}, metrics.NewSet()).cfg; c != defaultHealth {
		t.Fatalf("zero config selected %+v, want defaultHealth", c)
	}
	if c := newHealthRegistry(fastHealth(), metrics.NewSet()).cfg; c != fastHealth() {
		t.Fatalf("explicit config was rewritten to %+v", c)
	}
}

func TestHealthCircuitLifecycle(t *testing.T) {
	stats := metrics.NewSet()
	h := newHealthRegistry(fastHealth(), stats)
	peer := transport.ContextID(7)
	boom := errors.New("boom")

	// One failure: still closed, still allowed.
	h.reportFailure("tcp", peer, boom)
	if !h.allowed("tcp", peer) {
		t.Fatal("single failure must not trip the circuit")
	}
	gen0 := h.Gen()

	// Second failure: trips to open, generation moves, selection is denied.
	h.reportFailure("tcp", peer, boom)
	if h.allowed("tcp", peer) {
		t.Fatal("circuit must be open after threshold failures")
	}
	if h.Gen() == gen0 {
		t.Fatal("trip must bump the generation")
	}
	if stats.Get("failover.trips") != 1 || stats.Get("health.open") != 1 {
		t.Fatalf("trip counters: trips=%d open=%d", stats.Get("failover.trips"), stats.Get("health.open"))
	}
	snap := h.snapshot()
	if len(snap) != 1 || snap[0].State != CircuitOpen || snap[0].Trips != 1 || snap[0].LastError == "" {
		t.Fatalf("snapshot after trip: %+v", snap)
	}

	// After the backoff expires, exactly one caller gets a half-open probe.
	time.Sleep(25 * time.Millisecond)
	if !h.probeDue() {
		t.Fatal("probe must be due after backoff")
	}
	if !h.allowed("tcp", peer) {
		t.Fatal("expired open circuit must grant a probe")
	}
	if h.allowed("tcp", peer) {
		t.Fatal("second caller must not get a probe while one is in flight")
	}
	if stats.Get("health.halfopen.probes") != 1 {
		t.Fatalf("probes = %d", stats.Get("health.halfopen.probes"))
	}

	// Failed probe: back to open with doubled backoff.
	h.reportFailure("tcp", peer, boom)
	snap = h.snapshot()
	if snap[0].State != CircuitOpen || snap[0].Backoff != 40*time.Millisecond {
		t.Fatalf("after failed probe: %+v", snap[0])
	}
	if h.allowed("tcp", peer) {
		t.Fatal("circuit must deny during the doubled backoff")
	}

	// Successful probe heals: closed, generation moves, error cleared.
	time.Sleep(45 * time.Millisecond)
	if !h.allowed("tcp", peer) {
		t.Fatal("expired circuit must grant a second probe")
	}
	gen1 := h.Gen()
	h.reportSuccess("tcp", peer)
	if h.Gen() == gen1 {
		t.Fatal("heal must bump the generation")
	}
	snap = h.snapshot()
	if snap[0].State != CircuitClosed || snap[0].LastError != "" || snap[0].ConsecutiveFailures != 0 {
		t.Fatalf("after heal: %+v", snap[0])
	}
	if h.probeDue() {
		t.Fatal("no probe pending after heal")
	}
}

func TestHealthBackoffCap(t *testing.T) {
	h := newHealthRegistry(fastHealth(), metrics.NewSet())
	peer := transport.ContextID(1)
	h.tripNow("tcp", peer, errors.New("down"))
	for i := 0; i < 6; i++ {
		// Force the probe grant without sleeping by rewinding the schedule.
		h.mu.Lock()
		e := h.entries[healthKey{"tcp", peer}]
		e.state = CircuitHalfOpen
		h.mu.Unlock()
		h.reportFailure("tcp", peer, errors.New("still down"))
	}
	if b := h.snapshot()[0].Backoff; b != 100*time.Millisecond {
		t.Fatalf("backoff = %v, want capped at 100ms", b)
	}
}

func TestHealthFilterTable(t *testing.T) {
	h := newHealthRegistry(fastHealth(), metrics.NewSet())
	table := transport.NewTable(
		transport.Descriptor{Method: "mpl", Context: 3},
		transport.Descriptor{Method: "tcp", Context: 3},
	)
	if got := h.filterTable(table); got != table {
		t.Fatal("empty registry must return the table untouched")
	}
	h.tripNow("mpl", 3, errors.New("down"))
	got := h.filterTable(table)
	if got.Len() != 1 || got.Entries[0].Method != "tcp" {
		t.Fatalf("filtered table = %v", got)
	}
	// The circuit only covers peer 3; the same method toward another peer
	// stays selectable.
	other := transport.NewTable(transport.Descriptor{Method: "mpl", Context: 4})
	if got := h.filterTable(other); got.Len() != 1 {
		t.Fatal("circuit must be scoped per peer context")
	}
}

// TestHealthFilterTableAllocs pins that a table nothing is dropped from is
// filtered without allocating, even with circuits held for other peers: a
// send filters its table on every selection.
func TestHealthFilterTableAllocs(t *testing.T) {
	h := newHealthRegistry(fastHealth(), metrics.NewSet())
	h.tripNow("mpl", 3, errors.New("down"))
	table := transport.NewTable(
		transport.Descriptor{Method: "mpl", Context: 4},
		transport.Descriptor{Method: "tcp", Context: 4},
	)
	if avg := testing.AllocsPerRun(100, func() {
		if h.filterTable(table) != table {
			t.Fatal("a table with no open circuit was copied")
		}
	}); avg != 0 {
		t.Errorf("filtering a table nothing is dropped from allocates %.1f times, want 0", avg)
	}
	// Dropping the last entry keeps the ones before it.
	h.tripNow("tcp", 4, errors.New("down"))
	if got := h.filterTable(table); got.Len() != 1 || got.Entries[0].Method != "mpl" {
		t.Fatalf("filtered table = %v, want [mpl]", got)
	}
}

// TestConnKeyFromAttrBlock pins the connection-cache key: a descriptor in
// map form and its sealed equivalent share one key, a different attribute
// does not, and a sealed descriptor's key costs no allocation.
func TestConnKeyFromAttrBlock(t *testing.T) {
	open := transport.Descriptor{Method: "tcp", Context: 7, Attrs: map[string]string{"addr": "a:1", "fabric": "f"}}
	sealed := transport.NewTable(open).Entries[0]
	if keyFor(open) != keyFor(sealed) {
		t.Fatalf("map-form key %+v differs from sealed key %+v", keyFor(open), keyFor(sealed))
	}
	other := transport.Descriptor{Method: "tcp", Context: 7, Attrs: map[string]string{"addr": "a:2", "fabric": "f"}}
	if keyFor(other) == keyFor(sealed) {
		t.Fatal("descriptors with different attributes share a key")
	}
	bare := transport.Descriptor{Method: "tcp", Context: 7}
	if keyFor(bare) != keyFor(transport.Descriptor{Method: "tcp", Context: 7, Attrs: map[string]string{}}) {
		t.Fatal("a nil and an empty attribute map key differently")
	}
	if avg := testing.AllocsPerRun(100, func() { _ = keyFor(sealed) }); avg != 0 {
		t.Errorf("a sealed descriptor's key allocates %.1f times, want 0", avg)
	}
}

func TestHealthAwareFallsBackWhenAllOpen(t *testing.T) {
	c := newCtx(t, "health-fallback", "", inprocCfg())
	peer := newCtx(t, "health-fallback", "", inprocCfg())
	table := peer.AdvertisedTable()
	c.health.tripNow("inproc", peer.ID(), errors.New("down"))
	// Wait out the backoff so the fallback path (not a probe grant) is not
	// what we exercise: trip again to push retryAt forward, then select.
	desc, err := c.healthSel(c, table)
	if err != nil {
		t.Fatalf("HealthAware must fall back to the full table: %v", err)
	}
	if desc.Method != "inproc" {
		t.Fatalf("selected %q", desc.Method)
	}
}

// TestPollErrorsDisableModule drives the poll-supervision satellite: a module
// whose Poll always fails leaves the rotation after pollFailureThreshold
// consecutive errors, its receive circuit shows in the snapshot, and the
// poll.errors counter reflects every failure.
func TestPollErrorsDisableModule(t *testing.T) {
	tag := "poll-disable"
	reg := transport.NewRegistry()
	for _, name := range []string{"local", "inproc"} {
		name := name
		reg.Register(name, transport.Default.Params(name), func(v transport.Values) (transport.Module, error) {
			return transport.Default.New(name, v.Params)
		})
	}
	pollFails := make(chan error, 64)
	reg.Register("badpoll", nil, func(transport.Values) (transport.Module, error) {
		inner, err := transport.Default.New("inproc", transport.Params{"exchange": tag + "-bad"})
		if err != nil {
			return nil, err
		}
		return &badPollModule{Module: inner, errs: pollFails}, nil
	})
	c, err := NewContext(Options{
		registry: reg,
		Methods: []MethodConfig{
			{Name: "badpoll"},
			{Name: "inproc", Params: transport.Params{"exchange": tag}},
		},
		health: fastHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	for i := 0; i < 8; i++ {
		pollFails <- errors.New("socket gone")
	}
	threshold := c.health.cfg.pollFailureThreshold
	for i := 0; i < threshold; i++ {
		c.Poll()
	}
	if got := c.Stats().Get("poll.errors.badpoll"); got != uint64(threshold) {
		t.Fatalf("poll.errors.badpoll = %d, want %d", got, threshold)
	}
	if c.Stats().Get("poll.disabled") != 1 {
		t.Fatal("module was not disabled")
	}
	var rcv *HealthInfo
	for _, hi := range c.HealthSnapshot() {
		if hi.Method == "badpoll" && hi.Peer == receivePeer {
			rcv = &hi
			break
		}
	}
	if rcv == nil || rcv.State != CircuitOpen {
		t.Fatalf("receive-path circuit not open: %+v", rcv)
	}
	// While disabled, passes do not poll the module (errors stop growing).
	errsBefore := c.Stats().Get("poll.errors.badpoll")
	c.Poll()
	c.Poll()
	if got := c.Stats().Get("poll.errors.badpoll"); got != errsBefore {
		t.Fatalf("disabled module still polled: %d -> %d", errsBefore, got)
	}
	// After the backoff, the next pass probes; with the error stream dry the
	// probe succeeds and the module rejoins the rotation.
	time.Sleep(25 * time.Millisecond)
	if !c.PollUntil(func() bool {
		for _, hi := range c.HealthSnapshot() {
			if hi.Method == "badpoll" && hi.Peer == receivePeer {
				return hi.State == CircuitClosed
			}
		}
		return false
	}, 5*time.Second) {
		t.Fatal("receive path never healed")
	}
}

// badPollModule wraps a working module but fails Poll whenever an error is
// queued on errs.
type badPollModule struct {
	transport.Module
	errs chan error
}

func (m *badPollModule) Poll() (int, error) {
	select {
	case err := <-m.errs:
		return 0, err
	default:
	}
	return m.Module.Poll()
}
