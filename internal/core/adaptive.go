package core

import (
	"time"
)

const (
	// adaptiveInterval is how often StartAdaptiveSkipPoll re-evaluates
	// skip_poll values.
	adaptiveInterval = 10 * time.Millisecond
	// adaptiveMaxSkip caps how far an idle method is throttled.
	adaptiveMaxSkip = 1024
	// adaptiveGrow multiplies an idle method's skip each interval.
	adaptiveGrow = 2
	// adaptiveMinCostRatio exempts cheap methods: a method is only throttled
	// if its poll cost is at least this multiple of the cheapest enabled
	// method's. Cheap methods stay at skip 1, where they belong.
	adaptiveMinCostRatio = 4
)

// StartAdaptiveSkipPoll launches the paper's §6 future-work refinement:
// dynamic adjustment of skip_poll values from observed traffic. Every 10 ms,
// each expensive method that delivered frames since the last check snaps
// back to skip 1 (traffic is flowing; detection latency matters); methods
// that stayed idle are throttled geometrically up to skip 1024 (their polls
// are pure overhead). Cheap methods are left alone.
//
// Methods whose skip_poll was set manually (SetSkipPoll) are pinned and left
// alone; UnpinSkipPoll hands them back to the tuner.
//
// It returns a stop function that blocks until the tuner exits. The tuner
// only adjusts skip values; it does not poll — pair it with StartPoller or
// an application polling loop.
func (c *Context) StartAdaptiveSkipPoll() (stop func()) {
	return c.startAdaptive(adaptiveInterval, adaptiveMaxSkip)
}

// startAdaptive runs the tuner every interval with cap maxSkip; tests reach
// values other than the constants through it.
func (c *Context) startAdaptive(interval time.Duration, maxSkip int) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		lastFrames := make(map[string]uint64)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			c.adaptOnce(maxSkip, lastFrames)
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// adaptOnce performs one adaptation round, throttling idle methods up to
// maxSkip (exposed for deterministic tests).
func (c *Context) adaptOnce(maxSkip int, lastFrames map[string]uint64) {
	c.mu.RLock()
	mods := make([]*moduleState, len(c.modules))
	copy(mods, c.modules)
	c.mu.RUnlock()

	// Find the cheapest poll cost to define "expensive". pollCostEstimate
	// prefers the observed mean from the poll-stage histograms (when stats
	// are on and the method has enough samples) over the module's static
	// hint, so the tuner's notion of cheap vs. expensive tracks what polls
	// actually cost on this host.
	var minCost time.Duration
	costs := make(map[*moduleState]time.Duration, len(mods))
	for _, ms := range mods {
		if cost := c.pollCostEstimate(ms); cost > 0 {
			costs[ms] = cost
			if minCost == 0 || cost < minCost {
				minCost = cost
			}
		}
	}
	for _, ms := range mods {
		cost, hinted := costs[ms]
		if !hinted || minCost == 0 || cost < minCost*adaptiveMinCostRatio {
			continue // cheap method: always polled eagerly
		}
		frames := ms.frames.Load()
		prev := lastFrames[ms.name]
		lastFrames[ms.name] = frames
		cur := int(ms.skipAtomic.Load())
		switch {
		case frames > prev:
			// Traffic observed: poll eagerly again.
			if cur != 1 {
				ms.setSkipPoll(&c.pollMu, 1, false)
			}
		default:
			// Idle: back off geometrically.
			next := cur * adaptiveGrow
			if next > maxSkip {
				next = maxSkip
			}
			if next != cur {
				ms.setSkipPoll(&c.pollMu, next, false)
			}
		}
	}
}
