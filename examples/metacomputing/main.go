// Metacomputing: the full stack in one program — a heterogeneous machine
// (instrument site, processing farm, remote viewer), a name service for
// discovery, and the image-processing pipeline, with per-site communication
// methods selected from descriptor tables.
//
//	go run ./examples/metacomputing
package main

import (
	"fmt"
	"log"
	"time"

	"nexus"
)

func main() {
	fast := nexus.Params{"latency": "2us", "poll_cost": "1us", "bandwidth": "0"}
	wide := nexus.Params{"latency": "100us", "poll_cost": "20us", "bandwidth": "1e8"}

	// One instrument node, a three-node farm, one remote viewer.
	nodes := []nexus.NodeSpec{
		{Partition: "instrument", Methods: []nexus.MethodConfig{
			{Name: "mpl", Params: fast}, {Name: "wan", Params: wide},
		}},
	}
	for i := 0; i < 3; i++ {
		nodes = append(nodes, nexus.NodeSpec{Partition: "farm", Methods: []nexus.MethodConfig{
			{Name: "mpl", Params: fast}, {Name: "wan", Params: wide},
		}})
	}
	nodes = append(nodes, nexus.NodeSpec{Partition: "viewer", Methods: []nexus.MethodConfig{
		{Name: "wan", Params: wide},
	}})
	machine, err := nexus.NewMachine(nexus.MachineConfig{Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	defer machine.Close()

	// The instrument node hosts a name service; everyone else discovers
	// endpoints through it.
	ns := nexus.NewNameServer(machine.Context(0))
	_ = ns

	cfg := nexus.PipelineConfig{
		Workers: 3, Tiles: 24, TileW: 24, TileH: 24, FilterIters: 3,
		Timeout: 60 * time.Second,
	}
	// Farm nodes install the worker handler and poll in the background.
	for r := 1; r <= 3; r++ {
		nexus.InstallPipelineWorker(machine.Context(r), cfg)
		stop := machine.Context(r).StartPoller(0)
		defer stop()
	}

	// The viewer publishes a display endpoint under a well-known name.
	viewer := machine.Context(4)
	frames := 0
	viewer.RegisterHandler("display", func(ep *nexus.Endpoint, b *nexus.Buffer) {
		frames++
	})
	viewerEP := viewer.NewEndpoint()
	nsSP, err := nexus.TransferStartpoint(ns.Startpoint(), viewer)
	if err != nil {
		log.Fatal(err)
	}
	stopNS := machine.Context(0).StartPoller(0)
	viewerClient := nexus.NewNameClient(viewer, nsSP)
	if err := viewerClient.Register("iway/display", viewerEP.NewStartpoint()); err != nil {
		log.Fatal(err)
	}
	// RunPipeline polls the instrument's context itself, and its result
	// handler writes state that Run reads between polls: no other goroutine
	// may poll that context while it runs.
	stopNS()

	// The instrument runs the pipeline over the farm...
	st, err := nexus.RunPipeline(machine, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d tiles in %v, checksum %.6f (ground truth %.6f)\n",
		st.Tiles, st.Elapsed.Round(time.Millisecond), st.Checksum, nexus.PipelineExpected(cfg))
	for w := 1; w < len(st.PerWorker); w++ {
		fmt.Printf("  farm worker %d processed %d tiles\n", w, st.PerWorker[w])
	}

	// ...then resolves the viewer by name and pushes a summary frame to it
	// over the wide area.
	instSP, err := nexus.TransferStartpoint(ns.Startpoint(), machine.Context(0))
	if err != nil {
		log.Fatal(err)
	}
	instClient := nexus.NewNameClient(machine.Context(0), instSP)
	stopNS2 := machine.Context(0).StartPoller(0)
	display, err := instClient.Resolve("iway/display")
	stopNS2()
	if err != nil {
		log.Fatal(err)
	}
	b := nexus.NewBuffer(32)
	b.PutFloat64(st.Checksum)
	if err := display.RSR("display", b); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for frames == 0 && time.Now().Before(deadline) {
		viewer.Poll()
	}
	fmt.Printf("viewer: received %d summary frame(s) via %q\n", frames, display.Method())
}
