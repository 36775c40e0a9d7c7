package nexus_test

import (
	"fmt"
	"time"

	"nexus"
)

// ExampleNewContext shows the minimal request/handler round trip within one
// context: the local method delivers synchronously.
func ExampleNewContext() {
	ctx, err := nexus.NewContext(nexus.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer ctx.Close()

	ep := ctx.NewEndpoint(nexus.WithHandler(func(ep *nexus.Endpoint, b *nexus.Buffer) {
		fmt.Println("handler got:", b.String())
	}))
	sp := ep.NewStartpoint()
	b := nexus.NewBuffer(32)
	b.PutString("hello, link")
	if err := sp.RSR("", b); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("method:", sp.Method())
	// Output:
	// handler got: hello, link
	// method: local
}

// ExampleStartpoint_SetMethod demonstrates manual method selection: the
// startpoint's descriptor table lists every way to reach the endpoint and
// the program pins one.
func ExampleStartpoint_SetMethod() {
	methods := []nexus.MethodConfig{{Name: "inproc"}, {Name: "tcp"}}
	server, err := nexus.NewContext(nexus.Options{Methods: methods})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer server.Close()
	client, err := nexus.NewContext(nexus.Options{Methods: methods})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer client.Close()

	done := make(chan struct{})
	ep := server.NewEndpoint(nexus.WithHandler(func(*nexus.Endpoint, *nexus.Buffer) {
		close(done)
	}))
	sp, err := nexus.TransferStartpoint(ep.NewStartpoint(), client)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Automatic selection would pick inproc (first in the table); policy
	// demands real sockets for this link.
	if err := sp.SetMethod("tcp"); err != nil {
		fmt.Println(err)
		return
	}
	if err := sp.RSR("", nil); err != nil {
		fmt.Println(err)
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case <-done:
			fmt.Println("delivered via", sp.Method())
			return
		default:
			if time.Now().After(deadline) {
				fmt.Println("timeout")
				return
			}
			server.Poll()
		}
	}
	// Output:
	// delivered via tcp
}

// ExampleContext_SetSkipPoll shows the paper's skip_poll control: the
// expensive method is checked on every 20th polling pass only.
func ExampleContext_SetSkipPoll() {
	ctx, err := nexus.NewContext(nexus.Options{
		Methods: []nexus.MethodConfig{{Name: "inproc"}, {Name: "tcp"}},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer ctx.Close()
	if err := ctx.SetSkipPoll("tcp", 20); err != nil {
		fmt.Println(err)
		return
	}
	for i := 0; i < 100; i++ {
		ctx.Poll()
	}
	for _, mi := range ctx.Methods() {
		if mi.Name == "inproc" || mi.Name == "tcp" {
			fmt.Printf("%s polled %d times in 100 passes\n", mi.Name, mi.Polls)
		}
	}
	// Output:
	// inproc polled 100 times in 100 passes
	// tcp polled 5 times in 100 passes
}

// ExampleParseMethodSpec shows resource-string configuration, the
// command-line/database path for choosing methods.
func ExampleParseMethodSpec() {
	methods, err := nexus.ParseMethodSpec("inproc,tcp:skip_poll=100:sndbuf=262144")
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, m := range methods {
		fmt.Printf("%s skip_poll=%d\n", m.Name, max(1, m.SkipPoll))
	}
	// Output:
	// inproc skip_poll=1
	// tcp skip_poll=100
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
