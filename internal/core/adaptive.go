package core

import (
	"time"
)

// AdaptiveConfig tunes StartAdaptiveSkipPoll.
type AdaptiveConfig struct {
	// Interval is how often skip_poll values are re-evaluated (default
	// 10 ms).
	Interval time.Duration
	// MaxSkip caps how far an idle method is throttled (default 1024).
	MaxSkip int
}

const (
	// adaptiveGrow multiplies an idle method's skip each interval.
	adaptiveGrow = 2
	// adaptiveMinCostRatio exempts cheap methods: a method is only throttled
	// if its poll cost is at least this multiple of the cheapest enabled
	// method's. Cheap methods stay at skip 1, where they belong.
	adaptiveMinCostRatio = 4
)

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.MaxSkip < 1 {
		c.MaxSkip = 1024
	}
	return c
}

// StartAdaptiveSkipPoll launches the paper's §6 future-work refinement:
// dynamic adjustment of skip_poll values from observed traffic. Every
// interval, each expensive method that delivered frames since the last check
// snaps back to skip 1 (traffic is flowing; detection latency matters);
// methods that stayed idle are throttled geometrically up to MaxSkip (their
// polls are pure overhead). Cheap methods are left alone.
//
// Methods whose skip_poll was set manually (SetSkipPoll) are pinned and left
// alone; UnpinSkipPoll hands them back to the tuner.
//
// It returns a stop function that blocks until the tuner exits. The tuner
// only adjusts skip values; it does not poll — pair it with StartPoller or
// an application polling loop.
func (c *Context) StartAdaptiveSkipPoll(cfg AdaptiveConfig) (stop func()) {
	cfg = cfg.withDefaults()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		lastFrames := make(map[string]uint64)
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			c.adaptOnce(cfg, lastFrames)
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// adaptOnce performs one adaptation round (exposed for deterministic tests).
func (c *Context) adaptOnce(cfg AdaptiveConfig, lastFrames map[string]uint64) {
	cfg = cfg.withDefaults()
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
		if ms.blocking {
			continue
		}
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
				_ = c.applySkipPoll(ms.name, 1, false)
			}
		default:
			// Idle: back off geometrically.
			next := cur * adaptiveGrow
			if next > cfg.MaxSkip {
				next = cfg.MaxSkip
			}
			if next != cur {
				_ = c.applySkipPoll(ms.name, next, false)
			}
		}
	}
}
