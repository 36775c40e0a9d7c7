// Package metrics provides the lightweight counters behind the core's
// enquiry functions.
//
// The paper requires that implementations "provide this information via
// enquiry functions" so programmers can evaluate automatic selection and tune
// manual selections. Counters here are cheap enough to update on every RSR
// and every poll pass.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level — a queue depth, a buffered byte count —
// that moves both ways, unlike the monotone Counter.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores an absolute level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Set is a named collection of counters and gauges. The zero value is not
// usable; use NewSet.
type Set struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it on first use.
// The returned pointer may be cached by callers on hot paths.
func (s *Set) Counter(name string) *Counter {
	s.mu.RLock()
	c, ok := s.counters[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.counters[name]; ok {
		return c
	}
	c = &Counter{}
	s.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Like Counter, the returned pointer may be cached by hot-path callers.
// Gauges share the counter namespace in snapshots; a gauge whose level is
// negative (transiently possible between paired updates) snapshots as 0.
func (s *Set) Gauge(name string) *Gauge {
	s.mu.RLock()
	g, ok := s.gauges[name]
	s.mu.RUnlock()
	if ok {
		return g
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok = s.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	s.gauges[name] = g
	return g
}

// Get returns the current value of the named counter or gauge (0 if absent).
func (s *Set) Get(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c, ok := s.counters[name]; ok {
		return c.Load()
	}
	if g, ok := s.gauges[name]; ok {
		return clampGauge(g.Load())
	}
	return 0
}

func clampGauge(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// Snapshot returns a copy of all counter and gauge values.
func (s *Set) Snapshot() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.counters)+len(s.gauges))
	for k, c := range s.counters {
		out[k] = c.Load()
	}
	for k, g := range s.gauges {
		out[k] = clampGauge(g.Load())
	}
	return out
}
