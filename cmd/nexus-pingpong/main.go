// nexus-pingpong runs the §3.3 ping-pong microbenchmark on the real library
// (not the model): two in-process contexts bounce a buffer over a chosen
// method while optionally also polling an idle expensive method, reproducing
// the multimethod-detection overhead on today's hardware.
//
//	nexus-pingpong                          # inproc, no extra method
//	nexus-pingpong -extra tcp               # idle TCP polled every pass
//	nexus-pingpong -extra tcp -skip 20      # ... every 20th pass
//	nexus-pingpong -sizes 0,1024,65536 -rounds 2000
//	nexus-pingpong -trace                   # latency percentiles + a trace
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nexus"
)

var (
	method = flag.String("method", "inproc", "method carrying the traffic")
	extra  = flag.String("extra", "", "additional (idle) method to poll, e.g. tcp")
	skip   = flag.Int("skip", 1, "skip_poll value for the extra method")
	rounds = flag.Int("rounds", 5000, "roundtrips per size")
	sizes  = flag.String("sizes", "0,64,1024,16384,65536", "comma-separated message sizes")
	trace  = flag.Bool("trace", false, "enable RSR tracing; print stage percentiles and a sample trace")
)

func main() {
	flag.Parse()
	var sizeList []int
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad size %q", s)
		}
		sizeList = append(sizeList, n)
	}

	methods := []nexus.MethodConfig{{Name: *method}}
	if *extra != "" {
		methods = append(methods, nexus.MethodConfig{Name: *extra, SkipPoll: *skip})
	}
	mk := func() *nexus.Context {
		c, err := nexus.NewContext(nexus.Options{Methods: methods})
		if err != nil {
			log.Fatal(err)
		}
		if *trace {
			c.EnableTracing(0)
		}
		return c
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()

	cfg := fmt.Sprintf("method=%s", *method)
	if *extra != "" {
		cfg += fmt.Sprintf(" extra=%s skip_poll=%d", *extra, *skip)
	}
	fmt.Printf("ping-pong: %s rounds=%d\n", cfg, *rounds)
	fmt.Printf("%10s %16s %14s\n", "size (B)", "one-way (µs)", "MB/s")

	for _, size := range sizeList {
		oneWay := runPingPong(a, b, size, *rounds)
		mbps := 0.0
		if size > 0 && oneWay > 0 {
			mbps = float64(size) / oneWay.Seconds() / 1e6
		}
		fmt.Printf("%10d %16.2f %14.1f\n", size, float64(oneWay.Nanoseconds())/1e3, mbps)
	}

	// Enquiry: show per-method poll counts on the receiver.
	fmt.Println("\nreceiver enquiry:")
	for _, mi := range b.Methods() {
		fmt.Printf("  %-8s skip_poll=%-6d polls=%-10d frames=%d\n", mi.Name, mi.SkipPoll, mi.Polls, mi.Frames)
	}

	if *trace {
		printObservability(a, b)
	}
}

// printObservability renders the stage percentiles from both contexts and one
// complete cross-context trace, matched by trace ID across the two dumps.
func printObservability(a, b *nexus.Context) {
	fmt.Println("\nlatency percentiles (method/stage, µs):")
	fmt.Printf("  %-4s %-8s %-8s %10s %10s %10s %10s\n",
		"ctx", "method", "stage", "count", "p50", "p95", "p99")
	for _, c := range []*nexus.Context{a, b} {
		for _, l := range c.Observe().Latencies {
			fmt.Printf("  %-4d %-8s %-8s %10d %10.2f %10.2f %10.2f\n",
				c.ID(), l.Method, l.Stage, l.Count,
				float64(l.P50.Nanoseconds())/1e3,
				float64(l.P95.Nanoseconds())/1e3,
				float64(l.P99.Nanoseconds())/1e3)
		}
	}

	// Sample trace: the newest send on context a, lined up with whatever the
	// other context recorded under the same ID.
	dumpA, dumpB := a.TraceDump(), b.TraceDump()
	var id nexus.TraceID
	for _, e := range dumpA {
		if e.Stage == nexus.StageSend {
			id = e.Trace
		}
	}
	if id.IsZero() {
		fmt.Println("\nno traced sends buffered")
		return
	}
	var events []nexus.TraceEvent
	for _, e := range append(dumpA, dumpB...) {
		if e.Trace == id {
			events = append(events, e)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	fmt.Printf("\nsample trace %s:\n", id)
	for _, e := range events {
		fmt.Printf("  %s\n", e.String())
	}
}

func runPingPong(a, b *nexus.Context, size, rounds int) time.Duration {
	var aGot, bGot atomic.Int64
	epA := a.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { aGot.Add(1) }))
	epB := b.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) { bGot.Add(1) }))
	defer epA.Close()
	defer epB.Close()
	spToB, err := nexus.TransferStartpoint(epB.NewStartpoint(), a)
	if err != nil {
		log.Fatal(err)
	}
	spToA, err := nexus.TransferStartpoint(epA.NewStartpoint(), b)
	if err != nil {
		log.Fatal(err)
	}
	defer spToB.Close()
	defer spToA.Close()

	payload := nexus.NewBuffer(size)
	payload.PutRaw(make([]byte, size))

	// B echoes every ping.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			want := int64(i + 1)
			for bGot.Load() < want {
				if b.Poll() == 0 {
					runtime.Gosched()
				}
			}
			if err := spToA.RSR("", payload); err != nil {
				log.Fatal(err)
			}
		}
	}()

	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := spToB.RSR("", payload); err != nil {
			log.Fatal(err)
		}
		want := int64(i + 1)
		for aGot.Load() < want {
			if a.Poll() == 0 {
				runtime.Gosched()
			}
		}
	}
	elapsed := time.Since(start)
	<-done
	return elapsed / time.Duration(2*rounds)
}
