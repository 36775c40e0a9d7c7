// Package pipeline implements a near-real-time image-processing pipeline —
// the paper's second application family (§1, §2 and reference [20]:
// satellite image processing as a metacomputing application): a data source
// streams image tiles to a farm of processing contexts, and results flow to
// a collector, with the communication methods chosen per link by the usual
// table-driven selection.
//
// The pipeline is built directly on the one-sided RSR API (no MPI layer):
// the source fires tile RSRs at workers, workers fire result RSRs back, and
// flow control is a per-worker window of outstanding tiles. The source also
// implements tile-level recovery: a tile unacknowledged past a deadline is
// reassigned to the next worker, so a crashed worker delays but never loses
// output — the "switch in the event of error" behaviour of §2 at the
// application level, on top of the startpoint-level failover the core
// provides.
package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/cluster"
	"nexus/internal/core"
)

// Handler names used by the pipeline protocol.
const (
	handlerTile   = "pipeline.tile"
	handlerResult = "pipeline.result"
)

// Config parameterises a pipeline run on a machine of 1 + Workers contexts:
// rank 0 is the source and collector; ranks 1..Workers process tiles.
type Config struct {
	// Workers is the number of processing contexts (machine size - 1).
	Workers int
	// Tiles is the number of image tiles to process.
	Tiles int
	// TileW and TileH are the tile dimensions.
	TileW, TileH int
	// FilterIters applies the smoothing filter this many times per tile.
	FilterIters int
	// Window bounds outstanding tiles per worker (default 2).
	Window int
	// RetryAfter reassigns a tile not acknowledged within this duration
	// (default 2s); tiles are deduplicated at the collector.
	RetryAfter time.Duration
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.TileW == 0 {
		c.TileW = 32
	}
	if c.TileH == 0 {
		c.TileH = 32
	}
	if c.Tiles == 0 {
		c.Tiles = 16
	}
	if c.FilterIters == 0 {
		c.FilterIters = 2
	}
	if c.Window == 0 {
		c.Window = 2
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// Stats summarises a pipeline run.
type Stats struct {
	// Tiles is the number of distinct tiles collected.
	Tiles int
	// Checksum is the order-independent sum of all processed pixels;
	// deterministic for a Config regardless of worker count, scheduling,
	// or communication methods.
	Checksum float64
	// PerWorker counts tiles processed by each worker (1-indexed rank).
	PerWorker []int
	// Retries counts tile reassignments (0 unless workers failed).
	Retries int
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
}

// sourceTile generates the synthetic instrument data for one tile.
func sourceTile(cfg Config, id int) []float64 {
	px := make([]float64, cfg.TileW*cfg.TileH)
	for y := 0; y < cfg.TileH; y++ {
		for x := 0; x < cfg.TileW; x++ {
			px[y*cfg.TileW+x] = float64((x*31+y*17+id*7)%64) / 64.0
		}
	}
	return px
}

// processTile applies the smoothing filter: the per-tile "science".
func processTile(cfg Config, px []float64) []float64 {
	w, h := cfg.TileW, cfg.TileH
	cur := px
	next := make([]float64, len(px))
	for it := 0; it < cfg.FilterIters; it++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				sum, n := 0.0, 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nx, ny := x+dx, y+dy
						if nx < 0 || nx >= w || ny < 0 || ny >= h {
							continue
						}
						sum += cur[ny*w+nx]
						n++
					}
				}
				next[y*w+x] = sum / float64(n)
			}
		}
		cur, next = next, cur
	}
	out := make([]float64, len(cur))
	copy(out, cur)
	return out
}

// Expected computes the checksum Run must produce for a Config, by
// processing every tile locally — the ground truth for tests.
func Expected(cfg Config) float64 {
	cfg = cfg.withDefaults()
	sum := 0.0
	for id := 0; id < cfg.Tiles; id++ {
		for _, v := range processTile(cfg, sourceTile(cfg, id)) {
			sum += v
		}
	}
	return sum
}

// InstallWorker registers the processing handler in a worker context. The
// worker answers tile RSRs with result RSRs over the startpoint packed into
// each tile message, whenever its context polls.
func InstallWorker(ctx *core.Context, cfg Config) {
	cfg = cfg.withDefaults()
	ctx.RegisterHandler(handlerTile, func(ep *core.Endpoint, b *buffer.Buffer) {
		id := b.Int()
		workerRank := b.Int()
		px := b.Float64s()
		reply, err := ctx.DecodeStartpoint(b)
		if err != nil || b.Err() != nil {
			return
		}
		out := processTile(cfg, px)
		res := buffer.New(8*len(out) + 32)
		res.PutInt(id)
		res.PutInt(workerRank)
		res.PutFloat64s(out)
		if reply.RSR(handlerResult, res) != nil { // the coordinator waits for every tile
			ctx.Stats().Counter("pipeline.result_unsent").Inc()
		}
		reply.Close()
	})
}

// Run drives the pipeline from rank 0 of the machine: ranks 1..Workers must
// already have InstallWorker'd and be polling (their own loop or a machine
// poller).
func Run(m *cluster.Machine, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 || cfg.Workers > m.Size()-1 {
		return Stats{}, fmt.Errorf("pipeline: %d workers on a machine of %d", cfg.Workers, m.Size())
	}
	src := m.Context(0)
	start := time.Now()

	// Collector state.
	type doneTile struct {
		worker int
		sum    float64
	}
	collected := make(map[int]doneTile, cfg.Tiles)
	resultEP := src.NewEndpoint(core.WithHandler(func(ep *core.Endpoint, b *buffer.Buffer) {
		id := b.Int()
		worker := b.Int()
		px := b.Float64s()
		if b.Err() != nil {
			return
		}
		if _, dup := collected[id]; dup {
			return // a retried tile came back twice; keep the first
		}
		sum := 0.0
		for _, v := range px {
			sum += v
		}
		collected[id] = doneTile{worker: worker, sum: sum}
	}))
	defer resultEP.Close()

	// Startpoints to each worker's tile handler endpoint, via lightweight
	// encoding (peer tables were exchanged at machine boot).
	workerSP := make([]*core.Startpoint, cfg.Workers+1)
	for wr := 1; wr <= cfg.Workers; wr++ {
		ep := m.Context(wr).NewEndpoint() // tiles name the context handler
		sp, err := core.TransferStartpoint(ep.NewStartpoint(), src)
		if err != nil {
			return Stats{}, fmt.Errorf("pipeline: linking worker %d: %w", wr, err)
		}
		workerSP[wr] = sp
		defer sp.Close()
	}

	type assignment struct {
		worker int
		at     time.Time
	}
	outstanding := make(map[int]assignment)
	inFlight := make([]int, cfg.Workers+1) // per-worker outstanding count
	nextTile := 0
	retries := 0
	rr := 0 // round-robin cursor

	sendTile := func(id int) error {
		// Pick the next worker with window room.
		for try := 0; try < cfg.Workers; try++ {
			rr = rr%cfg.Workers + 1
			if inFlight[rr] < cfg.Window {
				b := buffer.New(8*cfg.TileW*cfg.TileH + 64)
				b.PutInt(id)
				b.PutInt(rr)
				b.PutFloat64s(sourceTile(cfg, id))
				resultEP.NewStartpoint().EncodeLite(b)
				if err := workerSP[rr].RSR(handlerTile, b); err != nil {
					return err
				}
				outstanding[id] = assignment{worker: rr, at: time.Now()}
				inFlight[rr]++
				return nil
			}
		}
		return nil // no window room anywhere; caller retries after polling
	}

	deadline := time.Now().Add(cfg.Timeout)
	for len(collected) < cfg.Tiles {
		if time.Now().After(deadline) {
			return Stats{}, fmt.Errorf("pipeline: timeout with %d/%d tiles", len(collected), cfg.Tiles)
		}
		// Feed new tiles while windows allow.
		for nextTile < cfg.Tiles {
			before := len(outstanding)
			if err := sendTile(nextTile); err != nil {
				return Stats{}, err
			}
			if len(outstanding) == before {
				break // all windows full
			}
			nextTile++
		}
		// Collect results.
		if src.Poll() == 0 {
			runtime.Gosched()
		}
		for id := range collected {
			if a, ok := outstanding[id]; ok {
				inFlight[a.worker]--
				delete(outstanding, id)
			}
		}
		// Reassign tiles stuck past the deadline (dead or slow worker).
		now := time.Now()
		for id, a := range outstanding {
			if now.Sub(a.at) < cfg.RetryAfter {
				continue
			}
			inFlight[a.worker]--
			delete(outstanding, id)
			retries++
			// Steer away from the timed-out worker if possible.
			if cfg.Workers > 1 {
				rr = a.worker % cfg.Workers // next rr increment skips it
			}
			if err := sendTile(id); err != nil {
				return Stats{}, err
			}
		}
	}

	st := Stats{
		Tiles:     len(collected),
		PerWorker: make([]int, cfg.Workers+1),
		Retries:   retries,
		Elapsed:   time.Since(start),
	}
	// Order-independent checksum: sum over tile ids.
	for id := 0; id < cfg.Tiles; id++ {
		d := collected[id]
		st.Checksum += d.sum
		if d.worker >= 1 && d.worker <= cfg.Workers {
			st.PerWorker[d.worker]++
		}
	}
	if math.IsNaN(st.Checksum) {
		return Stats{}, fmt.Errorf("pipeline: NaN checksum")
	}
	return st, nil
}
