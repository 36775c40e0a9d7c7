// Instrument: a near-real-time data source streaming to a remote processing
// context, with automatic failover to an alternative communication substrate
// when the primary fails mid-stream.
//
// This is the paper's §2 "networked instrument" scenario: "applications that
// connect scientific instruments ... need to be able to switch among
// alternative communication substrates in the event of error or high load".
// The stream starts on the fast partition fabric; partway through, that
// substrate dies; the startpoint's failover drops the dead method from its
// descriptor table, reselects, and the stream continues over TCP without the
// application noticing beyond the enquiry counters.
//
//	go run ./examples/instrument
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"nexus"
)

const (
	frames    = 120
	frameSize = 4096
	failAt    = 40 // the primary substrate dies before this frame
)

func main() {
	methods := []nexus.MethodConfig{
		{Name: "mpl", Params: nexus.Params{"latency": "20us", "poll_cost": "2us"}},
		{Name: "tcp"},
	}
	processor, err := nexus.NewContext(nexus.Options{Partition: "lab", Methods: methods})
	if err != nil {
		log.Fatal(err)
	}
	defer processor.Close()
	instrument, err := nexus.NewContext(nexus.Options{Partition: "lab", Methods: methods})
	if err != nil {
		log.Fatal(err)
	}
	defer instrument.Close()
	// Tracing on both sides: the operator view below prints per-stage
	// percentiles and one cross-context trace of a streamed frame.
	processor.EnableTracing(1024)
	instrument.EnableTracing(1024)

	var received atomic.Int64
	var checksum atomic.Int64
	processor.RegisterHandler("frame", func(ep *nexus.Endpoint, b *nexus.Buffer) {
		seq := b.Int()
		data := b.BytesValue()
		received.Add(1)
		checksum.Add(int64(seq) + int64(len(data)))
	})
	ep := processor.NewEndpoint()

	// The processor polls in the background, like a daemon.
	stop := processor.StartPoller(0)
	defer stop()

	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), instrument)
	if err != nil {
		log.Fatal(err)
	}
	sp.SetFailover(true)

	payload := make([]byte, frameSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	methodAt := map[int]string{}
	for seq := 0; seq < frames; seq++ {
		if seq == failAt {
			// Let in-flight frames land, then fail the fast substrate
			// (switch crash, link down, ...). A dying transport may drop
			// queued data; draining first keeps the demo deterministic.
			for received.Load() < failAt {
				time.Sleep(time.Millisecond)
			}
			if err := processor.DisableMethod("mpl"); err != nil {
				log.Fatal(err)
			}
			fmt.Println("!! primary substrate (mpl) failed")
		}
		b := nexus.NewBuffer(frameSize + 16)
		b.PutInt(seq)
		b.PutBytes(payload)
		if err := sp.RSR("frame", b); err != nil {
			log.Fatalf("frame %d: %v", seq, err)
		}
		methodAt[seq] = sp.Method()
	}

	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < frames && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	fmt.Printf("frame   0 sent via %q\n", methodAt[0])
	fmt.Printf("frame %3d sent via %q (after failover)\n", frames-1, methodAt[frames-1])
	fmt.Printf("received %d/%d frames, checksum %d\n", received.Load(), frames, checksum.Load())
	st := instrument.Stats().Snapshot()
	fmt.Printf("instrument enquiry: rsr.sent=%d rsr.failover=%d\n", st["rsr.sent"], st["rsr.failover"])

	// The observability view: what each stage of the stream actually cost,
	// per method — the failover is visible as two send rows (mpl, then tcp).
	fmt.Println("\ninstrument latency percentiles (µs):")
	for _, l := range instrument.Observe().Latencies {
		fmt.Printf("  %-6s %-8s count=%-5d p50=%-8.2f p95=%-8.2f p99=%.2f\n",
			l.Method, l.Stage, l.Count,
			float64(l.P50.Nanoseconds())/1e3,
			float64(l.P95.Nanoseconds())/1e3,
			float64(l.P99.Nanoseconds())/1e3)
	}

	// One frame's journey across both contexts, matched by trace ID.
	var id nexus.TraceID
	for _, e := range instrument.TraceDump() {
		if e.Stage == nexus.StageSend {
			id = e.Trace
		}
	}
	if !id.IsZero() {
		fmt.Printf("\nsample trace %s:\n", id)
		for _, e := range append(instrument.TraceDump(), processor.TraceDump()...) {
			if e.Trace == id {
				fmt.Printf("  %s\n", e.String())
			}
		}
	}

	if received.Load() != frames {
		log.Fatal("stream incomplete")
	}
	if methodAt[0] != "mpl" || methodAt[frames-1] != "tcp" {
		log.Fatalf("unexpected method sequence: %q -> %q", methodAt[0], methodAt[frames-1])
	}
}
