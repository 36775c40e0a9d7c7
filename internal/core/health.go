package core

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/metrics"
	"nexus/internal/transport"
)

// This file implements the per-context link-health registry behind automatic
// method failover. Every (method, peer-context) pair a context sends to has a
// circuit: Closed while the method works, Open after repeated send failures
// (selection then avoids it), and HalfOpen when the open circuit's backoff
// expires and exactly one send is let through as a probe. A probe success
// closes the circuit and bumps the registry generation, which makes every
// supervised link re-run selection — so links that degraded to a slower
// method land back on the fastest one after a heal, the paper's "a new
// communication object can be constructed at any time" made automatic.

// CircuitState is the health state of one (method, peer-context) pair.
type CircuitState int

const (
	// CircuitClosed: the method is healthy (or untried) toward the peer.
	CircuitClosed CircuitState = iota
	// CircuitOpen: repeated failures tripped the circuit; selection skips
	// the method until the backoff expires.
	CircuitOpen
	// CircuitHalfOpen: the backoff expired and one in-flight send is probing
	// the method; its outcome closes or re-opens the circuit.
	CircuitHalfOpen
)

func (s CircuitState) String() string {
	switch s {
	case CircuitClosed:
		return "closed"
	case CircuitOpen:
		return "open"
	case CircuitHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// healthConfig holds the health registry's thresholds and backoffs. Every
// context outside this package's tests runs with defaultHealth; a test copies
// it and overrides, because any non-zero config is used whole, zeros included
// (a zero backoffJitter has to mean "none").
type healthConfig struct {
	// failureThreshold is how many consecutive send failures open a
	// (method, peer) circuit.
	failureThreshold int
	// backoffBase is the first open-circuit backoff. Each failed half-open
	// probe doubles it up to backoffMax.
	backoffBase time.Duration
	backoffMax  time.Duration
	// backoffJitter randomizes each backoff by up to this fraction so a
	// fleet of links does not probe in lockstep; 0 disables it.
	backoffJitter float64
	// probeTimeout bounds a half-open probe: if its outcome has not been
	// reported after this long (the probing sender died), another probe is
	// allowed.
	probeTimeout time.Duration
	// pollFailureThreshold is how many consecutive module Poll errors
	// disable a method's receive path. The path re-probes on the circuit's
	// backoff schedule instead of spinning forever.
	pollFailureThreshold int
}

// defaultHealth: two failures open a circuit (one may just be a stale cached
// connection; a redial that also fails is a dead method).
var defaultHealth = healthConfig{
	failureThreshold:     2,
	backoffBase:          100 * time.Millisecond,
	backoffMax:           5 * time.Second,
	backoffJitter:        0.2,
	probeTimeout:         2 * time.Second,
	pollFailureThreshold: 8,
}

// receivePeer is the pseudo-peer key under which a method's local receive
// path (its Poll) is tracked. Real context ids start at 1.
const receivePeer = transport.ContextID(0)

type healthKey struct {
	method string
	peer   transport.ContextID
}

type healthEntry struct {
	state        CircuitState
	consecFails  int
	backoff      time.Duration
	retryAt      time.Time
	probeStarted time.Time
	openedAt     time.Time
	trips        uint64
	lastErr      string
}

// HealthInfo is one entry of a context's health snapshot. Peer 0 describes a
// method's local receive path (poll health) rather than a link.
type HealthInfo struct {
	Method              string
	Peer                transport.ContextID
	State               CircuitState
	ConsecutiveFailures int
	// Trips counts how many times this circuit has opened.
	Trips uint64
	// Backoff is the current open-circuit backoff (0 when closed).
	Backoff time.Duration
	// RetryAt is when an open circuit may next probe (zero when closed).
	RetryAt time.Time
	// LastError is the most recent failure, "" after a heal.
	LastError string
}

// healthRegistry tracks circuit state per (method, peer-context) pair.
type healthRegistry struct {
	cfg healthConfig

	// gen increments on every state transition that should make supervised
	// links re-run selection (trip and heal). Bindings stamp the generation
	// they were validated under; a mismatch on the next send triggers
	// re-selection.
	gen atomic.Uint64
	// nextRetry is the earliest UnixNano at which any open circuit may be
	// probed (0 = nothing pending). Senders use it to know when a
	// re-selection is worth running even though gen has not moved.
	nextRetry atomic.Int64

	mu sync.Mutex
	// rng draws backoff jitter. A PCG holds 16 bytes of state, where a
	// math/rand source holds about 4.9 KB, and every context builds one.
	rng     *rand.Rand
	entries map[healthKey]*healthEntry

	// Counters exported through the context's stats set.
	cTrips   *metrics.Counter // failover.trips: circuits opened from closed
	cOpens   *metrics.Counter // health.open: all transitions into Open
	cProbes  *metrics.Counter // health.halfopen.probes: probe grants
	cRedials *metrics.Counter // failover.redials: reconnect attempts
	cResends *metrics.Counter // failover.resends: frames resent after failure
}

// newHealthRegistry builds a registry; the zero cfg selects defaultHealth.
func newHealthRegistry(cfg healthConfig, stats *metrics.Set) *healthRegistry {
	if cfg == (healthConfig{}) {
		cfg = defaultHealth
	}
	return &healthRegistry{
		cfg:      cfg,
		rng:      rand.New(rand.NewPCG(1, 0)),
		entries:  make(map[healthKey]*healthEntry),
		cTrips:   stats.Counter("failover.trips"),
		cOpens:   stats.Counter("health.open"),
		cProbes:  stats.Counter("health.halfopen.probes"),
		cRedials: stats.Counter("failover.redials"),
		cResends: stats.Counter("failover.resends"),
	}
}

// Gen returns the current transition generation.
func (h *healthRegistry) Gen() uint64 { return h.gen.Load() }

// bump forces a generation move without a circuit transition, so every
// link's published binding reads as stale and its next send re-runs
// selection. The
// peer-table refresh path uses it to push runtime descriptor changes into
// live links.
func (h *healthRegistry) bump() { h.gen.Add(1) }

// probeDue reports whether some open circuit's backoff has expired, i.e.
// whether a sender should re-run selection to volunteer a probe. One atomic
// load on the healthy path; the clock is read only while a retry is armed.
func (h *healthRegistry) probeDue() bool {
	nr := h.nextRetry.Load()
	return nr != 0 && time.Now().UnixNano() >= nr
}

func (h *healthRegistry) entryLocked(k healthKey) *healthEntry {
	e := h.entries[k]
	if e == nil {
		e = &healthEntry{}
		h.entries[k] = e
	}
	return e
}

// jitteredLocked returns d extended by up to cfg.backoffJitter*d.
func (h *healthRegistry) jitteredLocked(d time.Duration) time.Duration {
	if h.cfg.backoffJitter <= 0 {
		return d
	}
	return d + time.Duration(h.cfg.backoffJitter*h.rng.Float64()*float64(d))
}

// recomputeNextRetryLocked re-derives the earliest pending probe time across
// all open and half-open entries.
func (h *healthRegistry) recomputeNextRetryLocked() {
	var min time.Time
	for _, e := range h.entries {
		var at time.Time
		switch e.state {
		case CircuitOpen:
			at = e.retryAt
		case CircuitHalfOpen:
			// A probe that never reports back re-arms after probeTimeout.
			at = e.probeStarted.Add(h.cfg.probeTimeout)
		default:
			continue
		}
		if min.IsZero() || at.Before(min) {
			min = at
		}
	}
	if min.IsZero() {
		h.nextRetry.Store(0)
	} else {
		h.nextRetry.Store(min.UnixNano())
	}
}

// allowedLocked reports whether the (method, peer) pair may be used for a
// send right now. Granting an expired open circuit transitions it to
// HalfOpen: the caller's send is the probe.
func (h *healthRegistry) allowedLocked(k healthKey, now time.Time) bool {
	e := h.entries[k]
	if e == nil || e.state == CircuitClosed {
		return true
	}
	switch e.state {
	case CircuitOpen:
		if now.Before(e.retryAt) {
			return false
		}
		e.state = CircuitHalfOpen
		e.probeStarted = now
		h.cProbes.Inc()
		h.recomputeNextRetryLocked()
		return true
	case CircuitHalfOpen:
		if now.Sub(e.probeStarted) > h.cfg.probeTimeout {
			e.probeStarted = now
			h.cProbes.Inc()
			h.recomputeNextRetryLocked()
			return true
		}
		return false
	}
	return true
}

// allowed is allowedLocked behind the registry lock (poll-path probes).
func (h *healthRegistry) allowed(method string, peer transport.ContextID) bool {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.allowedLocked(healthKey{method, peer}, now)
}

// filterTable returns a view of table with entries whose circuits are open
// removed. Half-open grants happen here: at most one caller receives the
// probed method. Every entry is asked, but a new table is allocated only
// once one is dropped: a table that passes whole is returned as it is.
func (h *healthRegistry) filterTable(table *transport.Table) *transport.Table {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) == 0 {
		return table
	}
	var kept []transport.Descriptor // nil until an entry is dropped
	for i, d := range table.Entries {
		switch {
		case !h.allowedLocked(healthKey{d.Method, d.Context}, now):
			if kept == nil {
				kept = append(make([]transport.Descriptor, 0, len(table.Entries)-1), table.Entries[:i]...)
			}
		case kept != nil:
			kept = append(kept, d)
		}
	}
	if kept == nil {
		return table
	}
	return &transport.Table{Entries: kept}
}

// reportFailure records a failed send on (method, peer). It trips the
// circuit after failureThreshold consecutive failures and re-opens a
// half-open circuit with a doubled backoff.
func (h *healthRegistry) reportFailure(method string, peer transport.ContextID, err error) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entryLocked(healthKey{method, peer})
	e.consecFails++
	if err != nil {
		e.lastErr = err.Error()
	}
	switch e.state {
	case CircuitHalfOpen:
		// Failed probe: back to open, backoff doubled.
		e.backoff *= 2
		if e.backoff > h.cfg.backoffMax {
			e.backoff = h.cfg.backoffMax
		}
		e.state = CircuitOpen
		e.retryAt = now.Add(h.jitteredLocked(e.backoff))
		h.cOpens.Inc()
		h.recomputeNextRetryLocked()
	case CircuitClosed:
		if e.consecFails >= h.cfg.failureThreshold {
			e.state = CircuitOpen
			e.backoff = h.cfg.backoffBase
			e.retryAt = now.Add(h.jitteredLocked(e.backoff))
			e.openedAt = now
			e.trips++
			h.cTrips.Inc()
			h.cOpens.Inc()
			h.gen.Add(1) // siblings sharing the method move off it
			h.recomputeNextRetryLocked()
		}
	case CircuitOpen:
		// A last-gasp send (every method open) failed again; the existing
		// retry schedule stands.
	}
}

// tripNow opens the circuit immediately, bypassing the failure threshold
// (the poll path counts its own consecutive errors).
func (h *healthRegistry) tripNow(method string, peer transport.ContextID, err error) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entryLocked(healthKey{method, peer})
	if err != nil {
		e.lastErr = err.Error()
	}
	if e.consecFails < h.cfg.failureThreshold {
		e.consecFails = h.cfg.failureThreshold
	}
	if e.state == CircuitOpen {
		return
	}
	e.state = CircuitOpen
	if e.backoff == 0 {
		e.backoff = h.cfg.backoffBase
	}
	e.retryAt = now.Add(h.jitteredLocked(e.backoff))
	e.openedAt = now
	e.trips++
	h.cTrips.Inc()
	h.cOpens.Inc()
	h.gen.Add(1)
	h.recomputeNextRetryLocked()
}

// reportSuccess records a working send on (method, peer), healing its
// circuit. Healing bumps the generation so every supervised link re-runs
// selection and lands back on the fastest applicable method.
func (h *healthRegistry) reportSuccess(method string, peer transport.ContextID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entries[healthKey{method, peer}]
	if e == nil {
		return
	}
	if e.state != CircuitClosed {
		e.state = CircuitClosed
		h.gen.Add(1)
		h.recomputeNextRetryLocked()
	}
	e.consecFails = 0
	e.backoff = 0
	e.retryAt = time.Time{}
	e.lastErr = ""
}

// snapshot returns the registry's entries sorted by method then peer.
func (h *healthRegistry) snapshot() []HealthInfo {
	h.mu.Lock()
	out := make([]HealthInfo, 0, len(h.entries))
	for k, e := range h.entries {
		out = append(out, HealthInfo{
			Method:              k.method,
			Peer:                k.peer,
			State:               e.state,
			ConsecutiveFailures: e.consecFails,
			Trips:               e.trips,
			Backoff:             e.backoff,
			RetryAt:             e.retryAt,
			LastError:           e.lastErr,
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// HealthSnapshot returns the state of every (method, peer-context) circuit
// the context has tracked — the enquiry interface for the failover layer.
// Entries with Peer 0 describe a method's local receive path.
func (c *Context) HealthSnapshot() []HealthInfo { return c.health.snapshot() }

// HealthAware wraps a selection policy so that it ignores descriptor-table
// entries whose (method, peer-context) circuit is open. It composes with any
// policy: HealthAware(FirstApplicable), HealthAware(PreferOrder("mpl")),
// HealthAware(CheapestPoll). When every method's circuit is open (or nothing
// in the filtered table is applicable), it falls back to the full table: a
// last-gasp attempt beats a guaranteed failure, and its outcome feeds the
// registry either way. The context's configured selector is wrapped this way
// automatically.
func HealthAware(inner Selector) Selector {
	return func(c *Context, table *transport.Table) (transport.Descriptor, error) {
		filtered := c.health.filterTable(table)
		if filtered.Len() > 0 {
			if d, err := inner(c, filtered); err == nil {
				return d, nil
			}
		}
		return inner(c, table)
	}
}
