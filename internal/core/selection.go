package core

import (
	"fmt"
	"time"

	"nexus/internal/transport"
)

// Selector chooses a communication method for a link given the target's
// descriptor table. Selection policies see the table in its current order, so
// user reordering (Promote, Reorder, Remove) composes with any policy.
type Selector func(c *Context, table *transport.Table) (transport.Descriptor, error)

// FirstApplicable is the paper's automatic selection rule: scan the
// descriptor table in order and use the first method that is enabled locally
// and whose module reports the descriptor applicable. With tables ordered
// fastest-first, this is the "fastest first" policy.
func FirstApplicable(c *Context, table *transport.Table) (transport.Descriptor, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, d := range table.Entries {
		if c.applicableLocked(d) != nil {
			return detach(d), nil
		}
	}
	return transport.Descriptor{}, errNoApplicableLocked(c, table)
}

// applicableLocked returns the enabled module that judges d applicable, or
// nil. Caller holds c.mu.
func (c *Context) applicableLocked(d transport.Descriptor) *moduleState {
	if ms := c.byMethod[d.Method]; ms != nil && ms.module.Applicable(d) {
		return ms
	}
	return nil
}

// detach returns a copy of a table entry that later edits to the table
// cannot reach. A sealed descriptor (Attrs nil) is already one: its
// attribute block is immutable. Only a descriptor built with an Attrs map is
// cloned.
func detach(d transport.Descriptor) transport.Descriptor {
	if d.Attrs == nil {
		return d
	}
	return d.Clone()
}

// PreferOrder returns a selector that tries the named methods first, in the
// given order, before falling back to table order — a programmer-directed
// policy that coexists with automatic selection, as §2.1 requires.
func PreferOrder(methods ...string) Selector {
	return func(c *Context, table *transport.Table) (transport.Descriptor, error) {
		c.mu.RLock()
		for _, name := range methods {
			if d, found := table.Find(name); found && c.applicableLocked(d) != nil {
				c.mu.RUnlock()
				return detach(d), nil
			}
		}
		c.mu.RUnlock()
		return FirstApplicable(c, table)
	}
}

// CheapestPoll selects, among applicable methods, the one with the lowest
// poll cost, breaking ties by table order. It is the QoS-flavoured automatic
// policy the paper sketches as future work: selection driven by measured
// properties rather than static ordering. With the observability histograms
// enabled, a method's cost is its observed mean poll latency on this host
// (once it has enough samples); until then — and always with stats off — the
// module's static PollCostHint is used. A method that measures slower than
// its hint therefore loses its ranking as soon as the data says so.
func CheapestPoll(c *Context, table *transport.Table) (transport.Descriptor, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	best := -1
	bestCost := time.Duration(1<<63 - 1)
	for i, d := range table.Entries {
		ms := c.applicableLocked(d)
		if ms == nil {
			continue
		}
		cost := c.pollCostEstimate(ms)
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return transport.Descriptor{}, errNoApplicableLocked(c, table)
	}
	return detach(table.Entries[best]), nil
}

// FastestObserved selects, among applicable methods, the one with the lowest
// observed mean send latency. Only methods whose send-stage histogram has
// accumulated minObservedPolls samples are ranked; if none qualifies yet —
// including whenever stats are disabled — it falls back to FirstApplicable,
// so early traffic explores the table in preference order before the
// measurements take over.
func FastestObserved(c *Context, table *transport.Table) (transport.Descriptor, error) {
	c.mu.RLock()
	best := -1
	bestCost := time.Duration(1<<63 - 1)
	for i, d := range table.Entries {
		ms := c.applicableLocked(d)
		if ms == nil {
			continue
		}
		cost := c.sendCostEstimate(ms)
		if cost > 0 && cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best >= 0 {
		d := detach(table.Entries[best])
		c.mu.RUnlock()
		return d, nil
	}
	c.mu.RUnlock()
	return FirstApplicable(c, table)
}

// SizeAware returns a selector that routes by message size: an RSR whose
// encoded payload is at most threshold bytes selects through small (where
// latency matters), a larger one through bulk (where bandwidth does). The
// size examined is the payload of the send that triggered selection — the
// context publishes it just before running the policy. For bulk messages the
// bulk selector first sees the table restricted to applicable methods whose
// frame limit carries the message in one frame; only when no method qualifies
// does it see the full table, where the fragmentation path covers any size.
// (The restriction compares payload bytes against the frame limit, ignoring
// the header's few dozen bytes, so a borderline message may still fragment —
// into two frames, harmlessly.) Nil selectors default to FirstApplicable.
// Manual pins (SetMethod) bypass selection entirely and are honored as usual.
func SizeAware(threshold int, small, bulk Selector) Selector {
	if small == nil {
		small = FirstApplicable
	}
	if bulk == nil {
		bulk = FirstApplicable
	}
	return func(c *Context, table *transport.Table) (transport.Descriptor, error) {
		size := int(c.selSize.Load())
		if size <= threshold {
			return small(c, table)
		}
		c.mu.RLock()
		var native []transport.Descriptor
		for _, d := range table.Entries {
			if ms := c.applicableLocked(d); ms != nil && ms.pairLimit(d) >= size {
				native = append(native, d)
			}
		}
		c.mu.RUnlock()
		if len(native) > 0 {
			if d, err := bulk(c, &transport.Table{Entries: native}); err == nil {
				return d, nil
			}
		}
		return bulk(c, table)
	}
}

// errNoApplicableLocked names the table and the local methods; c.mu is held.
func errNoApplicableLocked(c *Context, table *transport.Table) error {
	names := make([]string, 0, len(c.modules))
	for _, ms := range c.modules {
		names = append(names, ms.name)
	}
	return fmt.Errorf("%w (table %v, local methods %v)", ErrNoApplicableMethod, table, names)
}
